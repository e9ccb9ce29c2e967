package experiments

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"mlprofile/internal/stats"
)

// sharedRunner is built once per test binary: a small world with one CV
// fold, enough to assert the paper's comparative shapes.
var testRunner *Runner

func runner(t *testing.T) *Runner {
	t.Helper()
	if testRunner == nil {
		r, err := NewRunner(Options{Seed: 1, Users: 700, Locations: 200, FoldLimit: 1, Iterations: 10})
		if err != nil {
			t.Fatal(err)
		}
		testRunner = r
	}
	return testRunner
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Users != 2000 || o.Locations != 500 || o.Folds != 5 || o.FoldLimit != 5 || o.Iterations != 15 {
		t.Errorf("defaults = %+v", o)
	}
	o = Options{Folds: 3, FoldLimit: 10}.withDefaults()
	if o.FoldLimit != 3 {
		t.Errorf("FoldLimit should clamp to Folds: %+v", o)
	}
}

func TestFig3aShape(t *testing.T) {
	r := runner(t)
	s, law, err := r.Fig3a()
	if err != nil {
		t.Fatal(err)
	}
	if law.Alpha >= 0 || law.Alpha < -1.5 {
		t.Errorf("fitted alpha %.3f not a shallow decay", law.Alpha)
	}
	if len(s.X) < 8 {
		t.Errorf("only %d distance buckets", len(s.X))
	}
	// The measured probabilities must broadly decay: first third mean >
	// last third mean.
	ys := s.Y["P(follow)"]
	third := len(ys) / 3
	var head, tail float64
	for i := 0; i < third; i++ {
		head += ys[i]
		tail += ys[len(ys)-1-i]
	}
	if head <= tail {
		t.Errorf("following probability does not decay: head=%f tail=%f", head, tail)
	}
}

// TestAddLabeledPairsTotalWeight: Fig. 3a's denominator weighs every
// sample, collisions included, so its total is nL·(nL−1) — also for two
// or three labeled users, where half or a third of the second draws
// collide and skipping them would leave that share of the weight out.
func TestAddLabeledPairsTotalWeight(t *testing.T) {
	c := &runner(t).data.Corpus
	labeled := c.LabeledUsers()
	for _, nL := range []int{2, 3, len(labeled)} {
		den, _ := stats.NewLogHistogram(1, 1.5, 22)
		addLabeledPairs(den, rand.New(rand.NewSource(int64(nL))), c, labeled[:nL], 20000, 1)
		want := float64(nL) * float64(nL-1)
		if got := den.Total(); math.Abs(got-want) > 1e-9*want {
			t.Errorf("nL=%d: total weight %v, want nL(nL−1) = %v", nL, got, want)
		}
	}
}

func TestFig3bShape(t *testing.T) {
	r := runner(t)
	tbl, err := r.Fig3b()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 6 {
		t.Fatalf("only %d venue rows", len(tbl.Rows))
	}
	// Austin's top venues must include an Austin-area name.
	austinArea := false
	for _, row := range tbl.Rows {
		if row[0] == "Austin, TX" && (row[1] == "austin" || row[1] == "sixth street" || row[1] == "round rock") {
			austinArea = true
		}
	}
	if !austinArea {
		t.Errorf("no Austin-area venue among Austin's top venues:\n%s", tbl)
	}
}

// TestTable2Shape asserts the paper's headline ordering: MLP beats every
// other method, and each MLP variant beats its corresponding baseline.
func TestTable2Shape(t *testing.T) {
	r := runner(t)
	if _, err := r.Table2(); err != nil {
		t.Fatal(err)
	}
	acc := func(m string) float64 { return r.homeEvals[m].ACC(100) }
	t.Logf("ACC@100: BaseU=%.3f BaseC=%.3f MLP_U=%.3f MLP_C=%.3f MLP=%.3f",
		acc(MethodBaseU), acc(MethodBaseC), acc(MethodMLPU), acc(MethodMLPC), acc(MethodMLP))

	if acc(MethodMLP) <= acc(MethodBaseU) || acc(MethodMLP) <= acc(MethodBaseC) {
		t.Errorf("MLP must beat both baselines")
	}
	if acc(MethodMLPU) <= acc(MethodBaseU)-0.02 {
		t.Errorf("MLP_U %.3f should not lose to BaseU %.3f", acc(MethodMLPU), acc(MethodBaseU))
	}
	if acc(MethodMLPC) <= acc(MethodBaseC)-0.02 {
		t.Errorf("MLP_C %.3f should not lose to BaseC %.3f", acc(MethodMLPC), acc(MethodBaseC))
	}
	if acc(MethodMLP) < 0.6 {
		t.Errorf("MLP ACC@100 %.3f implausibly low", acc(MethodMLP))
	}
}

func TestFig4CurvesMonotone(t *testing.T) {
	r := runner(t)
	for _, fn := range []func() (*Series, error){r.Fig4a, r.Fig4b, r.Fig4c} {
		s, err := fn()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range s.Names {
			ys := s.Y[name]
			for i := 1; i < len(ys); i++ {
				if ys[i] < ys[i-1]-1e-9 {
					t.Errorf("%s: %s AAD curve not monotone: %v", s.Title, name, ys)
					break
				}
			}
		}
	}
}

func TestFig5Converges(t *testing.T) {
	r := runner(t)
	s, err := r.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.X) < 5 {
		t.Fatalf("only %d convergence points", len(s.X))
	}
	// Later changes must be small: the mean of the last third below 0.05.
	ys := s.Y["|ΔACC@100|"]
	third := len(ys) / 3
	var tail float64
	for i := len(ys) - third; i < len(ys); i++ {
		tail += ys[i]
	}
	if tail/float64(third) > 0.05 {
		t.Errorf("no convergence: late changes %v", ys[len(ys)-third:])
	}
}

// TestTable3AndFigs67Shape: MLP leads multi-location discovery, and its
// recall grows with K faster than the baselines'.
func TestTable3AndFigs67Shape(t *testing.T) {
	r := runner(t)
	if _, err := r.Table3(); err != nil {
		t.Fatal(err)
	}
	dr2 := func(m string) float64 { return r.multiEvals[m][1].DR() }
	if dr2(MethodMLP) <= dr2(MethodBaseU) || dr2(MethodMLP) <= dr2(MethodBaseC) {
		t.Errorf("MLP DR@2 %.3f should beat baselines (%.3f, %.3f)",
			dr2(MethodMLP), dr2(MethodBaseU), dr2(MethodBaseC))
	}
	fig7, err := r.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	mlpGain := fig7.Y[MethodMLP][2] - fig7.Y[MethodMLP][0]
	baseGain := fig7.Y[MethodBaseU][2] - fig7.Y[MethodBaseU][0]
	t.Logf("DR gain K=1→3: MLP %.3f, BaseU %.3f", mlpGain, baseGain)
	if mlpGain <= 0 {
		t.Errorf("MLP recall should grow with K")
	}
}

func TestTable4HasCases(t *testing.T) {
	r := runner(t)
	tbl, err := r.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d case rows, want 3", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if !strings.Contains(row[1], "/") {
			t.Errorf("case user %s is not multi-location: %q", row[0], row[1])
		}
	}
}

// TestFig8Shape: MLP must beat the home-location baseline at every
// threshold (the paper's 57% vs 40% claim).
func TestFig8Shape(t *testing.T) {
	r := runner(t)
	s, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range s.X {
		mlp, base := s.Y["MLP"][i], s.Y["Base"][i]
		if mlp <= base {
			t.Errorf("at %v miles MLP %.3f does not beat Base %.3f", m, mlp, base)
		}
	}
	// Flat beyond 50 miles, like the paper's Fig. 8.
	if s.Y["MLP"][5]-s.Y["MLP"][1] > 0.10 {
		t.Errorf("MLP curve not flat beyond 50 miles: %v", s.Y["MLP"])
	}
}

func TestTable5Shape(t *testing.T) {
	r := runner(t)
	tbl, err := r.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no relationship explanation rows")
	}
	if !strings.Contains(tbl.Title, "/") {
		t.Errorf("case user not multi-location: %s", tbl.Title)
	}
}

func TestAllRendersEverything(t *testing.T) {
	r := runner(t)
	out, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Fig 3(a)", "Fig 3(b)", "Table 2", "Fig 4(a)", "Fig 4(b)", "Fig 4(c)",
		"Fig 5", "Table 3", "Fig 6", "Fig 7", "Table 4", "Fig 8", "Table 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("All() output missing %q", want)
		}
	}
}
