package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running mlpserve process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	// started is exec → first 200 on /profile.
	started time.Duration
	// logDone is closed once the stderr reader has seen EOF.
	logDone chan struct{}
	logTail *bytes.Buffer
}

// startDaemon execs mlpserve on a snapshot and its corpus directory, waits
// for it to log its listen address, and times exec → first 200 on
// /profile/0?top=3 through client.
func startDaemon(bin, snapshot, data string, client *http.Client) (*daemon, error) {
	cmd := exec.Command(bin, "-snapshot", snapshot, "-data", data, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = dieWithParent()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{}), logTail: &bytes.Buffer{}}
	addr := make(chan string, 1)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if d.logTail.Len() < 1<<16 {
				d.logTail.WriteString(line + "\n")
			}
			if _, a, ok := strings.Cut(line, "serving on http://"); ok && !sent {
				addr <- strings.TrimSpace(a)
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
		// The scanner stops early on an overlong line; keep draining so
		// the daemon never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stderr)
	}()
	a, ok := <-addr
	if !ok {
		<-d.logDone
		_ = cmd.Wait() // the daemon already exited; its log says why
		return nil, fmt.Errorf("mlpserve exited before listening:\n%s", d.logTail.String())
	}
	d.base = "http://" + a
	status, _, err := get(client, d.base+"/profile/0?top=3")
	if err != nil || status != http.StatusOK {
		_ = d.stop()
		return nil, fmt.Errorf("first /profile request: status %d, %v", status, err)
	}
	d.started = time.Since(t0)
	return d, nil
}

// vmHWMMB reads the daemon's peak resident set size in MB.
func (d *daemon) vmHWMMB() (float64, error) {
	return vmHWMMB(d.cmd.Process.Pid)
}

// stop asks the daemon to drain and exit, kills it if it has not within
// ten seconds, and waits for it either way.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	timer := time.AfterFunc(10*time.Second, func() { _ = d.cmd.Process.Kill() })
	defer timer.Stop()
	<-d.logDone
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("mlpserve: %w\n%s", err, d.logTail.String())
	}
	return nil
}

// vmHWMMB reads a process's peak resident set size (VmHWM) in MB.
func vmHWMMB(pid int) (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// newConn returns an HTTP client that keeps exactly one connection alive,
// so the generator's connection count is its client count.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// get performs a GET and returns the status and whole body.
func get(c *http.Client, url string) (int, []byte, error) {
	return do(c, http.MethodGet, url, nil)
}

func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
