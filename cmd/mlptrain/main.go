// Command mlptrain fits the MLP model on a dataset directory and writes
// each user's inferred location profile.
//
// Usage:
//
//	mlptrain -data data/world -iterations 15 -out profiles.tsv
//	mlptrain -data data/world -variant mlp_u        # following only
//
// The output TSV has one row per user: handle, predicted home, then up to
// -top locations with probabilities.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mlprofile/internal/core"
	"mlprofile/internal/dataset"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mlptrain: ")

	var (
		data    = flag.String("data", "", "dataset directory written by mlpgen (required)")
		out     = flag.String("out", "profiles.tsv", "output profile TSV")
		iters   = flag.Int("iterations", 15, "Gibbs iterations")
		seed    = flag.Int64("seed", 1, "sampler seed")
		variant = flag.String("variant", "mlp", "model variant: mlp, mlp_u, mlp_c")
		topK    = flag.Int("top", 3, "profile locations per user to emit")
		em      = flag.Bool("em", true, "refine (alpha, beta) with Gibbs-EM")
		snap    = flag.String("snapshot", "", "also write a fitted-model snapshot here for mlpserve (a directory when -shards > 1)")
		shards  = flag.Int("shards", 1, "user shards, the one parallel Gibbs sweep (1 = the exact sequential sampler, the same chain on every machine; N > 1 = a parallel chain, deterministic per seed and N)")
		stream  = flag.Bool("stream", false, "load the dataset through the chunked streaming reader (bounded peak memory)")
	)
	flag.Parse()
	if *data == "" {
		flag.Usage()
		os.Exit(2)
	}

	var v core.Variant
	switch strings.ToLower(*variant) {
	case "mlp":
		v = core.Full
	case "mlp_u", "mlpu":
		v = core.FollowingOnly
	case "mlp_c", "mlpc":
		v = core.TweetingOnly
	default:
		log.Fatalf("unknown variant %q", *variant)
	}

	load := dataset.Load
	if *stream {
		load = dataset.LoadStreamed
	}
	d, err := load(*data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %s\n", d.Corpus.Stats())

	m, err := core.Fit(&d.Corpus, core.Config{
		Seed:       *seed,
		Iterations: *iters,
		Variant:    v,
		Shards:     *shards,
		GibbsEM:    *em,
	})
	if err != nil {
		log.Fatal(err)
	}
	alpha, beta := m.AlphaBeta()
	en, tn := m.NoiseStats()
	fmt.Printf("fitted %s in %d iterations: alpha=%.3f beta=%.5f noise(edges)=%.3f noise(tweets)=%.3f\n",
		v, m.Iterations(), alpha, beta, en, tn)
	switch active, u, dense := m.DistTableStatus(); {
	case !active:
		fmt.Println("distance table: none, MLP_C models no following relationships")
	case dense:
		fmt.Printf("distance table: U=%d of L=%d cities, dense\n", u, d.Corpus.Gaz.Len())
	default:
		fmt.Printf("distance table: U=%d of L=%d cities, single lookups\n", u, d.Corpus.Gaz.Len())
	}
	st := m.TweetBatchStats()
	fmt.Printf("tweet batch: fills=%d reuses=%d repairs=%d\n", st.Built, st.Hits, st.Repairs)

	if *snap != "" {
		save := m.SaveSnapshot
		if *shards > 1 {
			save = m.SaveShardedSnapshot
		}
		if err := save(*snap); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote snapshot %s\n", *snap)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	w := bufio.NewWriter(f)
	for _, u := range d.Corpus.Users {
		prof := m.Profile(u.ID)
		if len(prof) > *topK {
			prof = prof[:*topK]
		}
		fmt.Fprintf(w, "%s\t%s", u.Handle, d.Corpus.Gaz.City(m.Home(u.ID)).Key())
		for _, wl := range prof {
			fmt.Fprintf(w, "\t%s:%.3f", d.Corpus.Gaz.City(wl.City).Key(), wl.Weight)
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d users)\n", *out, len(d.Corpus.Users))
}
