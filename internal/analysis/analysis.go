// Package analysis is the repo's machine-checked invariant suite: a
// minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer / Pass /
// Diagnostic) plus five repo-specific analyzers, each motivated by a
// bug this repository actually shipped:
//
//   - maporder   — side-effecting `range` over a map in deterministic
//     packages (the synth.validate / experiments fit-order class)
//   - wallclock  — time.Now / time.Since in deterministic packages
//   - seedrand   — global math/rand state and time-seeded sources
//   - lockcheck  — `// guarded by mu` fields read outside the mutex
//     (the PR 9 sparse-row read race)
//   - closecheck — swallowed writable-file Close / Encode / Flush
//     errors (the PR 5/6 truth.json class)
//
// The framework is stdlib-only because the build is hermetic: no
// golang.org/x/tools in the module graph. The shape intentionally
// mirrors go/analysis so the suite could be ported to a vet-style
// driver without rewriting the analyzer bodies.
//
// Intentional exceptions are annotated in source:
//
//	//mlp:allow <analyzer>[,<analyzer>...] <justification>
//
// on the offending line or the line directly above it. An allow
// comment with no justification text does not suppress anything —
// the point of the annotation is the recorded reason.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in findings, -analyzers filters,
	// and //mlp:allow annotations.
	Name string
	// Doc is the one-paragraph description shown by mlplint -list.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// A Diagnostic is one finding, positioned at Pos.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	allow      map[allowKey]string // (file,line,analyzer) -> justification
	diags      []Diagnostic
	suppressed int
}

type allowKey struct {
	file     string
	line     int
	analyzer string
}

// NewPass assembles a Pass for one analyzer over a loaded package,
// indexing //mlp:allow comments from every file.
func NewPass(a *Analyzer, pkg *LoadedPackage) *Pass {
	p := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		allow:     map[allowKey]string{},
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, just, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, name := range names {
					p.allow[allowKey{pos.Filename, pos.Line, name}] = just
				}
			}
		}
	}
	return p
}

// parseAllow extracts ("maporder","reason...",true) from a comment of
// the form "//mlp:allow maporder reason..." (names comma-separated).
// ok is true for any mlp:allow comment, even one with an empty
// justification — callers distinguish via the justification string.
func parseAllow(text string) (names []string, justification string, ok bool) {
	const marker = "//mlp:allow"
	if !strings.HasPrefix(text, marker) {
		return nil, "", false
	}
	rest := strings.TrimPrefix(text, marker)
	// The marker is a directive: it must be followed by whitespace
	// ("//mlp:allowmaporder" is not an annotation).
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, "", false
	}
	rest = strings.TrimSpace(rest)
	name, just, _ := strings.Cut(rest, " ")
	if name == "" {
		return nil, "", false
	}
	for _, n := range strings.Split(name, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, strings.TrimSpace(just), len(names) > 0
}

// Reportf records a finding at pos unless a justified //mlp:allow
// comment for this analyzer sits on the same line or the line above.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		just, ok := p.allow[allowKey{position.Filename, line, p.Analyzer.Name}]
		if ok && just != "" {
			p.suppressed++
			return
		}
		if ok {
			p.diags = append(p.diags, Diagnostic{
				Analyzer: p.Analyzer.Name,
				Pos:      position,
				Message:  fmt.Sprintf(format, args...) + " (mlp:allow comment needs a justification)",
			})
			return
		}
	}
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the unsuppressed findings of this pass.
func (p *Pass) Diagnostics() []Diagnostic { return p.diags }

// Suppressed returns how many findings a justified //mlp:allow hid.
func (p *Pass) Suppressed() int { return p.suppressed }

// DeterministicPackages is the set of import paths whose code must be
// reproducible bit-for-bit given (Seed, Shards): the sampler core, the
// corpus layer, the synthetic-world generator, the RNG utilities, and
// the experiment harness. maporder and wallclock only
// fire inside these packages; seedrand, lockcheck, and closecheck run
// everywhere.
var DeterministicPackages = map[string]bool{
	"mlprofile/internal/core":        true,
	"mlprofile/internal/dataset":     true,
	"mlprofile/internal/synth":       true,
	"mlprofile/internal/randutil":    true,
	"mlprofile/internal/experiments": true,
}

// IsDeterministic reports whether pkgPath is subject to the
// determinism-only analyzers.
func IsDeterministic(pkgPath string) bool { return DeterministicPackages[pkgPath] }

// All returns the full suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Maporder, Wallclock, Seedrand, Lockcheck, Closecheck}
}

// ByName resolves a comma-separated analyzer list ("maporder,seedrand").
func ByName(csv string) ([]*Analyzer, error) {
	if csv == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(csv, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run applies each analyzer to each package and returns all findings
// sorted by position. Total suppressed-by-annotation count rides along.
func Run(pkgs []*LoadedPackage, analyzers []*Analyzer) (diags []Diagnostic, suppressed int, err error) {
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := NewPass(a, pkg)
			if err := a.Run(pass); err != nil {
				return nil, 0, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
			}
			diags = append(diags, pass.Diagnostics()...)
			suppressed += pass.Suppressed()
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, suppressed, nil
}
