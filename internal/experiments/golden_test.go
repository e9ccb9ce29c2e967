package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden from the current code")

// TestAllGolden pins mlpexp's default output — every table and figure of
// the evaluation section on the default 2,000-user world — byte for byte.
// The default fit is one chain on every machine, so the output is a pure
// function of the options. A change that moves the chain on purpose
// regenerates the file with
//
//	go test ./internal/experiments -run TestAllGolden -update
//
// and explains the table diff; a change that keeps the chain shows none.
func TestAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("fits five folds of the default world; runs in the full suite")
	}
	r, err := NewRunner(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q\n(run with -update to accept it)", path, i+1, g, w)
		}
	}
}
