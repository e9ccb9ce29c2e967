package core

import (
	"context"
	"runtime/pprof"
	"time"
)

// Fit-phase instrumentation: Fit wraps each init step and each EM
// refit, and the sweep coordinators wrap each sweep phase — the edge
// pass, the tweet pass, the barrier folds, the sharded boundary pass —
// in Model.phase, which accrues wall-clock time per phase name and runs
// the phase under a pprof label. Goroutines inherit the labels of the
// goroutine that spawns them, so the shards a phase fans out carry its
// label too and a -cpuprofile capture attributes every sample to a
// phase by name (mlpbench surfaces both: the timers in its result
// cells, the labels in its profile output). Together the phases cover
// all of Fit.
//
// Phase names:
//
//	init          init/powerlaw (initial (α, β) fit from labeled
//	              homes), init/candidates, init/disttable (universe
//	              matrices and first α-epoch), init/state
//	Shards=1      edge, tweet (the sequential chain)
//	Shards>1      shard (each shard's mixed edge+tweet walk), fold,
//	              boundary (the cross-shard color classes)
//	Gibbs-EM      em (the refit, including the α-epoch's pow matrix)
//
// The ν-step runs inside the tweet kernels (it shares their gathered
// state), so its time is part of the tweet/shard phases rather than a
// clock call per draw.

// phase runs f, accruing its wall time under name and labeling it for
// the profiler. Called only by the fit coordinator, between barriers,
// so the accumulator needs no lock.
func (m *Model) phase(name string, f func()) {
	if m.phaseSec == nil {
		m.phaseSec = make(map[string]float64)
	}
	start := time.Now()
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { f() })
	m.phaseSec[name] += time.Since(start).Seconds()
}

// PhaseSeconds returns a copy of the cumulative wall-clock seconds each
// fit phase has consumed so far, keyed by phase name. Safe to call
// between sweeps (e.g. from OnIteration) or after Fit; empty on a
// snapshot-loaded model.
func (m *Model) PhaseSeconds() map[string]float64 {
	out := make(map[string]float64, len(m.phaseSec))
	//mlp:allow maporder order-independent: plain map copy, one write per distinct key
	for k, v := range m.phaseSec {
		out[k] = v
	}
	return out
}
