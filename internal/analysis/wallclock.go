package analysis

import (
	"go/ast"
	"go/types"
	"strings"
	"sync"
)

// Wallclock forbids reading the wall clock (time.Now, time.Since,
// time.Until — as calls or as function values) inside deterministic
// packages: sampler output must be a pure function of (corpus, Seed,
// Shards), and wall-clock reads are how nondeterminism sneaks into
// "deterministic" code. Code that genuinely needs timing should take an
// injectable clock the way internal/serve's circuit breaker does (a
// `now func() time.Time` field defaulted at construction), or live on
// the allowlist: phase/bench/metrics accounting files where timing is
// the point and the values never feed the chain. The allowlist is
// configurable via AllowWallclockFiles (mlplint -wallclock.allow) and
// ships with internal/core/phase.go, the per-sweep phase-timing accrual.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc: "forbid time.Now/time.Since/time.Until in deterministic packages; " +
		"inject a clock (internal/serve breaker pattern) or allowlist " +
		"timing-only files with -wallclock.allow",
	Run: runWallclock,
}

var wallclockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

var (
	wallclockMu sync.Mutex
	// wallclockAllowFiles holds path suffixes of files exempt from the
	// wallclock rule. Default: the sweep phase-timing accrual, whose
	// wall-clock readings are observability-only (pprof labels +
	// PhaseSeconds) and never feed the chain.
	wallclockAllowFiles = []string{"internal/core/phase.go"}
)

// AllowWallclockFiles appends path suffixes to the wallclock
// allowlist (the -wallclock.allow flag of cmd/mlplint).
func AllowWallclockFiles(suffixes ...string) {
	wallclockMu.Lock()
	defer wallclockMu.Unlock()
	for _, s := range suffixes {
		if s = strings.TrimSpace(s); s != "" {
			wallclockAllowFiles = append(wallclockAllowFiles, s)
		}
	}
}

func wallclockFileAllowed(filename string) bool {
	wallclockMu.Lock()
	defer wallclockMu.Unlock()
	norm := strings.ReplaceAll(filename, "\\", "/")
	for _, suffix := range wallclockAllowFiles {
		if strings.HasSuffix(norm, suffix) {
			return true
		}
	}
	return false
}

func runWallclock(pass *Pass) error {
	if !IsDeterministic(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if wallclockFileAllowed(pass.Fset.Position(f.Pos()).Filename) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallclockFuncs[fn.Name()] {
				return true
			}
			pass.Reportf(id.Pos(), "time.%s in deterministic package %s reads the wall clock; inject a clock (see internal/serve's breaker `now` field) or allowlist this timing-only file via -wallclock.allow", fn.Name(), pass.Pkg.Path())
			return true
		})
	}
	return nil
}
