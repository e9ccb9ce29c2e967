// Command mlpexp regenerates the paper's evaluation tables and figures on
// a synthetic world (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	mlpexp                         # run everything at default scale
//	mlpexp -exp table2,fig8        # selected experiments
//	mlpexp -users 5000 -folds 5    # bigger world
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mlprofile/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mlpexp: ")

	var (
		exp       = flag.String("exp", "all", "comma-separated experiments: all, fig3a, fig3b, table2, fig4a, fig4b, fig4c, fig5, table3, fig6, fig7, table4, fig8, table5")
		users     = flag.Int("users", 2000, "number of users")
		locations = flag.Int("locations", 500, "number of candidate locations")
		seed      = flag.Int64("seed", 1, "world + sampler seed")
		folds     = flag.Int("folds", 5, "cross-validation folds")
		foldLimit = flag.Int("fold-limit", 0, "folds actually evaluated (0 = all)")
		iters     = flag.Int("iterations", 15, "Gibbs iterations per fit")
		shards    = flag.Int("shards", 1, "user shards per fit, the one parallel Gibbs sweep (1 = the exact sequential sampler; N > 1 = a parallel chain, deterministic per seed and N)")
		noEM      = flag.Bool("no-em", false, "disable Gibbs-EM refinement")
	)
	flag.Parse()

	r, err := experiments.NewRunner(experiments.Options{
		Seed:           *seed,
		Users:          *users,
		Locations:      *locations,
		Folds:          *folds,
		FoldLimit:      *foldLimit,
		Iterations:     *iters,
		Shards:         *shards,
		DisableGibbsEM: *noEM,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *exp == "all" {
		out, err := r.All()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out)
		return
	}

	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		var (
			out fmt.Stringer
			err error
		)
		switch name {
		case "fig3a":
			out, _, err = r.Fig3a()
		case "fig3b":
			out, err = r.Fig3b()
		case "table2":
			out, err = r.Table2()
		case "fig4a":
			out, err = r.Fig4a()
		case "fig4b":
			out, err = r.Fig4b()
		case "fig4c":
			out, err = r.Fig4c()
		case "fig5":
			out, err = r.Fig5()
		case "table3":
			out, err = r.Table3()
		case "fig6":
			out, err = r.Fig6()
		case "fig7":
			out, err = r.Fig7()
		case "table4":
			out, err = r.Table4()
		case "fig8":
			out, err = r.Fig8()
		case "table5":
			out, err = r.Table5()
		default:
			log.Printf("unknown experiment %q", name)
			os.Exit(2)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out)
	}
}
