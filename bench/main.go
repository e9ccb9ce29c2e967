// Command bench is the repository's benchmark: one program that times the
// whole pipeline from outside — ingest (dataset.LoadStreamed), fit
// (core.Fit with the defaults), readout (Model.TopK), snapshot
// (SaveSnapshot / LoadSnapshot) and serving (a real mlpserve daemon under
// open-loop HTTP traffic) — on four seeded synthetic worlds, checks that
// the outputs are correct, and prints every metric by name and unit.
// README.md defines the workloads and metrics.
//
// Usage, from this directory:
//
//	go run .                                   # all workloads, untraced then traced
//	go run . -runs 10                          # ten seeds per workload
//	go run . --workload fit-large --seed 7 --seconds 16 --trace 0
//	go run . -quick                            # tiny worlds, 1 s segments
//	go run . -compare A.json B.json            # apply BENCHMARK.json's bounds
//
// One workload run prints "workload metric value unit" lines and, as its
// last line, a JSON object with correct, attempted, failed and metrics.
// The all-workloads mode runs each workload as a child process and writes
// out/results.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		workload = flag.String("workload", "", "run one workload: fit-small, fit-large, fit-widegaz or serve-mixed (default: all)")
		seed     = flag.Int64("seed", 5, "world and sampler seed")
		seconds  = flag.Float64("seconds", 16, "measured seconds per workload run")
		trace    = flag.Int("trace", 0, "1: the traced run, reporting per-layer metrics; 0: end-to-end metrics")
		runs     = flag.Int("runs", 1, "all-workloads mode: untraced runs per workload, with seeds seed, seed+1, ...")
		quick    = flag.Bool("quick", false, "tiny worlds, one rep, short segments (a smoke test)")
		compare  = flag.Bool("compare", false, "compare two results files given as arguments")
		mlpserve = flag.String("mlpserve", "", "mlpserve binary (default: build it)")
		work     = flag.String("work", "", "scratch directory for worlds and snapshots (default: a temp directory)")
		out      = flag.String("out", "out", "directory for results.json and traces")
		childFit = flag.String("child-fit", "", "internal: run a fit phase described by this JSON")
	)
	flag.Parse()

	switch {
	case *childFit != "":
		if err := childMain(*childFit); err != nil {
			log.Fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			log.Fatal("-compare needs two results files")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), benchmarkJSON); err != nil {
			log.Fatal(err)
		}
	default:
		rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, mlpserve: *mlpserve, out: *out, log: os.Stdout}
		var err error
		if *workload != "" {
			err = oneWorkload(*workload, rc, *work)
		} else {
			err = allWorkloads(rc, *runs, *work)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
}

// benchmarkJSON is where BENCHMARK.json sits relative to this directory.
const benchmarkJSON = "../BENCHMARK.json"

func childMain(arg string) error {
	var p fitPlan
	if err := json.Unmarshal([]byte(arg), &p); err != nil {
		return err
	}
	res, err := runFitChild(p)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// scratch returns a fresh scratch directory under work (a temp directory
// when empty) and its cleanup.
func scratch(work string) (string, func(), error) {
	if work != "" {
		if err := os.MkdirAll(work, 0o755); err != nil {
			return "", nil, err
		}
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// ensureMlpserve builds the daemon into dir unless a binary was given.
func ensureMlpserve(rc *runConfig, dir string) error {
	if rc.mlpserve != "" {
		return nil
	}
	rc.mlpserve = filepath.Join(dir, "mlpserve")
	cmd := exec.Command("go", "build", "-o", rc.mlpserve, "mlprofile/cmd/mlpserve")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building mlpserve: %w", err)
	}
	return nil
}

// oneWorkload runs one workload in this process and prints its metrics,
// then the result line.
func oneWorkload(name string, rc runConfig, work string) error {
	w, err := findWorkload(name, rc.quick)
	if err != nil {
		return err
	}
	dir, cleanup, err := scratch(work)
	if err != nil {
		return err
	}
	defer cleanup()
	rc.work = dir
	if err := ensureMlpserve(&rc, dir); err != nil {
		return err
	}
	rep, failures, err := runWorkload(w, rc)
	if err != nil {
		return err
	}
	for _, f := range failures {
		fmt.Printf("# check failed: %s\n", f)
	}
	for _, n := range sortedNames(rep.Metrics) {
		fmt.Printf("%s %s %v %s\n", name, n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runSelf runs this program with args and returns its standard output;
// its standard error passes through.
func runSelf(args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.SysProcAttr = dieWithParent()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %v: %w", filepath.Base(exe), args[0], err)
	}
	return stdout.Bytes(), nil
}

// dieWithParent makes a child process get killed if this one dies, so
// an interrupted benchmark leaves nothing running.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// allWorkloads runs every workload `runs` times untraced, then once
// traced, each as a child process, and writes out/results.json.
func allWorkloads(rc runConfig, runs int, work string) error {
	dir, cleanup, err := scratch(work)
	if err != nil {
		return err
	}
	defer cleanup()
	if err := ensureMlpserve(&rc, dir); err != nil {
		return err
	}
	res := newResults(rc, runs)
	for _, traced := range []bool{false, true} {
		n := runs
		if traced {
			n = 1
		}
		for i := 0; i < n; i++ {
			for _, w := range workloads {
				seed := rc.seed + int64(i)
				trace := "0"
				if traced {
					trace = "1"
				}
				args := []string{"--workload", w.name, "--seed", fmt.Sprint(seed),
					"--seconds", fmt.Sprint(rc.seconds), "--trace", trace,
					"-mlpserve", rc.mlpserve, "-work", dir, "-out", rc.out}
				if rc.quick {
					args = append(args, "-quick")
				}
				t0 := time.Now()
				stdout, err := runSelf(args...)
				if err != nil {
					return err
				}
				os.Stdout.Write(bytes.TrimSuffix(bytes.TrimSpace(stdout), lastLine(stdout)))
				var rep report
				if err := json.Unmarshal(lastLine(stdout), &rep); err != nil {
					return fmt.Errorf("%s: result line: %w", w.name, err)
				}
				res.Records = append(res.Records, runRecord{Workload: w.name, Seed: seed, Traced: traced,
					DurationS: time.Since(t0).Seconds(), report: rep})
			}
		}
	}
	if err := os.MkdirAll(rc.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(rc.out, "results.json")
	if err := res.write(path); err != nil {
		return err
	}
	fmt.Printf("# wrote %s\n", path)
	return nil
}
