package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

type reqKind int

const (
	reqProfile reqKind = iota
	reqEdge
	reqBulk
	reqVenue
	reqReload
)

var kindNames = [...]string{"profile", "edge", "bulk", "venue", "reload"}

func (k reqKind) String() string { return kindNames[k] }

type request struct {
	kind         reqKind
	method, path string
	body         []byte
}

// shape is the id space the traffic draws from.
type shape struct {
	users, edges, cities, venues int
}

const (
	bulkUsers = 32
	// zipfS skews profile lookups so the daemon's 4,096-entry rendered
	// profile cache sees both hits and misses.
	zipfS = 1.1
	// fixedUsers is how many users' served bodies must stay byte-identical
	// across reloads.
	fixedUsers = 64
	// p99LimitMs is the latency limit a capacity-ladder step must meet.
	p99LimitMs = 5.0
)

// mix draws n requests of the benchmark's traffic: 80% /profile/{u}?top=3
// with u Zipf-distributed over a seeded permutation of the users, 10%
// /edge/{s}/explanation uniform, 5% POST /profiles of 32 Zipf users, 5%
// /venue-prob uniform over cities and venues.
func mix(rng *rand.Rand, sh shape, n int) []request {
	perm := rng.Perm(sh.users)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(sh.users-1))
	user := func() int { return perm[zipf.Uint64()] }
	reqs := make([]request, n)
	for i := range reqs {
		switch x := rng.Float64(); {
		case x < 0.80:
			reqs[i] = request{kind: reqProfile, method: http.MethodGet, path: fmt.Sprintf("/profile/%d?top=3", user())}
		case x < 0.90:
			reqs[i] = request{kind: reqEdge, method: http.MethodGet, path: fmt.Sprintf("/edge/%d/explanation", rng.Intn(sh.edges))}
		case x < 0.95:
			var b strings.Builder
			b.WriteString(`{"top":3,"users":[`)
			for j := 0; j < bulkUsers; j++ {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.Itoa(user()))
			}
			b.WriteString("]}")
			reqs[i] = request{kind: reqBulk, method: http.MethodPost, path: "/profiles", body: []byte(b.String())}
		default:
			reqs[i] = request{kind: reqVenue, method: http.MethodGet,
				path: fmt.Sprintf("/venue-prob?city=%d&venue=%d", rng.Intn(sh.cities), rng.Intn(sh.venues))}
		}
	}
	return reqs
}

// serveResult is everything the serve phase measured.
type serveResult struct {
	setupS   []float64 // cold starts, exec → first 200
	r2k, r6k segmentStats
	reload   segmentStats
	reloadS  []float64 // POST /reload round trips
	// warmN and warmFailed count the warm-up's requests.
	warmN, warmFailed int
	maxRate           float64
	ladderSteps       []ladderStep
	rssMB             float64
	cacheHit          float64
	checks            checks
}

// servePlan sizes the serve phase.
type servePlan struct {
	bin, snapshot, data string
	sh                  shape
	seed                int64
	coldStarts          int
	// Segment lengths in seconds; a zero length skips the segment. The
	// warm-up runs first, at 2k req/s, and is not measured.
	warmS, r2kS, r6kS, reloadS, ladderS float64
}

// reloads is how many POST /reload the reload segment spreads over it.
const reloads = 10

// runServe starts the daemon, drives the traffic segments against it and
// stops it. Spans go to tr when tracing.
func runServe(p servePlan, tr *tracer) (*serveResult, error) {
	res := &serveResult{}
	workers := runtime.NumCPU()
	conns := make([]*http.Client, workers)
	for i := range conns {
		conns[i] = newConn()
	}
	defer func() {
		for _, c := range conns {
			c.CloseIdleConnections()
		}
	}()

	var d *daemon
	for i := 0; i < p.coldStarts; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			conns[0].CloseIdleConnections()
		}
		sp := tr.begin("mlpserve.start", 0, 0)
		var err error
		if d, err = startDaemon(p.bin, p.snapshot, p.data, conns[0]); err != nil {
			return nil, err
		}
		tr.end(sp)
		res.setupS = append(res.setupS, d.started.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop() // error path: the phase's own error is returned
		}
	}()

	// Bodies of fixed users, before any traffic.
	rng := rand.New(rand.NewSource(p.seed))
	fixed := make([]string, fixedUsers)
	want := make([][]byte, fixedUsers)
	for i := range fixed {
		fixed[i] = fmt.Sprintf("%s/profile/%d?top=3", d.base, rng.Intn(p.sh.users))
		status, body, err := get(conns[0], fixed[i])
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("fixed user %s: status %d, %v", fixed[i], status, err)
		}
		want[i] = body
	}
	sameBodies := func(c *http.Client) bool {
		for i, u := range fixed {
			status, body, err := get(c, u)
			if err != nil || status != http.StatusOK || !bytes.Equal(body, want[i]) {
				return false
			}
		}
		return true
	}

	var (
		mu            sync.Mutex
		bodiesChanged bool
	)
	send := func(conn int, r *request) bool {
		t0 := time.Now()
		status, _, err := do(conns[conn], r.method, d.base+r.path, r.body)
		ok := err == nil && status == http.StatusOK
		if r.kind != reqReload {
			return ok
		}
		// The round trip is timed here, before the body check below.
		rt := time.Since(t0).Seconds()
		changed := ok && !sameBodies(conns[conn])
		mu.Lock()
		res.reloadS = append(res.reloadS, rt)
		bodiesChanged = bodiesChanged || changed
		mu.Unlock()
		return ok
	}
	segment := func(name string, rate, secs float64, reloads int) segmentStats {
		n := int(rate * secs)
		reqs := mix(rng, p.sh, n)
		for k := 1; k <= reloads; k++ {
			reqs[k*n/(reloads+1)] = request{kind: reqReload, method: http.MethodPost, path: "/reload"}
		}
		sp := tr.begin("segment "+name, 0, 0)
		outs := runOpenLoop(realClock{}, reqs, rate, workers, send)
		tr.end(sp)
		tr.requests(sp, outs)
		return summarize(outs, workers, int(rate))
	}

	// The daemon has just loaded its model and the generator has just
	// built the world: collect both heaps' garbage and fill the caches
	// before anything is timed.
	warm := segment("warm-up", 2000, p.warmS, 0)
	res.warmN, res.warmFailed = warm.n, warm.failed

	var before, after statsJSON
	if err := fetchStats(conns[0], d.base, &before); err != nil {
		return nil, err
	}
	res.r2k = segment("r2k", 2000, p.r2kS, 0)
	res.checks.add("serve: every window of the 2k req/s segment has 10 samples beyond its p99", res.r2k.windowsSupported)
	if p.r6kS > 0 {
		res.r6k = segment("r6k", 6000, p.r6kS, 0)
	}
	if err := fetchStats(conns[0], d.base, &after); err != nil {
		return nil, err
	}
	if looked := (after.CacheHits - before.CacheHits) + (after.CacheMisses - before.CacheMisses); looked > 0 {
		res.cacheHit = float64(after.CacheHits-before.CacheHits) / float64(looked)
	}

	if p.reloadS > 0 {
		res.reload = segment("reload", 2000, p.reloadS, reloads)
		res.checks.add("serve: fixed users' bodies unchanged after every reload", !bodiesChanged)
		var end statsJSON
		if err := fetchStats(conns[0], d.base, &end); err != nil {
			return nil, err
		}
		res.checks.add(fmt.Sprintf("serve: generation %d = 1 + %d reloads", end.Generation, reloads),
			end.Generation == 1+reloads)
	}

	if p.ladderS > 0 {
		// Capacity ladder: 2k, 3k, … 16k req/s, bisected in ~4 probes.
		var rates []float64
		for r := 2000.0; r <= 16000; r += 1000 {
			rates = append(rates, r)
		}
		res.maxRate, res.ladderSteps = ladder(rates, p99LimitMs, func(rate float64) ladderStep {
			s := segment(fmt.Sprintf("ladder %.0f", rate), rate, p.ladderS/5, 0)
			return ladderStep{rate: rate, p99Ms: s.p(99), n: s.n, failed: s.failed, grow: s.growing}
		})
	}

	rss, err := d.vmHWMMB()
	if err != nil {
		return nil, err
	}
	res.rssMB = rss
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	return res, nil
}

// statsJSON is the part of /stats the benchmark reads.
type statsJSON struct {
	Generation  uint64 `json:"generation"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
}

func fetchStats(c *http.Client, base string, into *statsJSON) error {
	status, body, err := get(c, base+"/stats")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/stats: status %d", status)
	}
	return json.Unmarshal(body, into)
}
