package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"mlprofile/internal/gazetteer"
	"mlprofile/internal/geo"
)

// File names used inside a dataset directory.
const (
	citiesFile = "cities.tsv"
	usersFile  = "users.tsv"
	edgesFile  = "edges.tsv"
	tweetsFile = "tweets.tsv"
	truthFile  = "truth.json"
)

// Save writes the dataset into dir (created if missing) as TSV tables plus
// an optional truth.json. The format is line-oriented and diff-friendly:
//
//	cities.tsv: id, name, state, lat, lon, population
//	users.tsv:  id, handle, home ("-" when unlabeled), registered
//	edges.tsv:  from, to
//	tweets.tsv: user, venue name
func (d *Dataset) Save(dir string) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("dataset: refusing to save invalid dataset: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	if err := writeLines(filepath.Join(dir, citiesFile), func(w *bufio.Writer) error {
		for _, c := range d.Corpus.Gaz.Cities() {
			fmt.Fprintf(w, "%d\t%s\t%s\t%.6f\t%.6f\t%d\n",
				c.ID, c.Name, c.State, c.Point.Lat, c.Point.Lon, c.Population)
		}
		return nil
	}); err != nil {
		return err
	}

	if err := writeLines(filepath.Join(dir, usersFile), func(w *bufio.Writer) error {
		for _, u := range d.Corpus.Users {
			home := "-"
			if u.Labeled() {
				home = strconv.Itoa(int(u.Home))
			}
			fmt.Fprintf(w, "%d\t%s\t%s\t%s\n", u.ID, sanitize(u.Handle), home, sanitize(u.Registered))
		}
		return nil
	}); err != nil {
		return err
	}

	if err := writeLines(filepath.Join(dir, edgesFile), func(w *bufio.Writer) error {
		for _, e := range d.Corpus.Edges {
			fmt.Fprintf(w, "%d\t%d\n", e.From, e.To)
		}
		return nil
	}); err != nil {
		return err
	}

	if err := writeLines(filepath.Join(dir, tweetsFile), func(w *bufio.Writer) error {
		for _, t := range d.Corpus.Tweets {
			fmt.Fprintf(w, "%d\t%s\n", t.User, d.Corpus.Venues.Venue(t.Venue).Name)
		}
		return nil
	}); err != nil {
		return err
	}

	if d.Truth != nil {
		// Close errors matter here: on a full disk the encoder's buffered
		// bytes can be lost at close, leaving a truncated truth.json that
		// Load later rejects. Mirror writeLines' close-checking.
		f, err := os.Create(filepath.Join(dir, truthFile))
		if err != nil {
			return err
		}
		if err := json.NewEncoder(f).Encode(d.Truth); err != nil {
			f.Close() //mlp:allow closecheck error path: the Encode error is returned; a close error on the doomed file adds nothing
			return fmt.Errorf("dataset: encoding truth: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("dataset: writing truth: %w", err)
		}
	}
	return nil
}

// Load reads a dataset previously written by Save. The venue vocabulary is
// rebuilt deterministically from the gazetteer, and tweet venue names are
// resolved against it. Loading validates the result.
//
// Load is a thin wrapper over the streaming reader (stream.go): it drains
// every block into memory at once. LoadStreamed adds a counting pass for
// exact-capacity allocation; both produce fingerprint-identical corpora.
func Load(dir string) (*Dataset, error) {
	st, err := OpenStream(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()

	d := &Dataset{Corpus: Corpus{Gaz: st.Gazetteer(), Venues: st.Venues()}}
	for {
		block, err := st.NextUserBlock(d.Corpus.Users, streamBlockRows)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		d.Corpus.Users = block
	}
	for {
		block, err := st.NextEdgeBlock(d.Corpus.Edges, streamBlockRows)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		d.Corpus.Edges = block
	}
	for {
		block, err := st.NextTweetBlock(d.Corpus.Tweets, streamBlockRows)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		d.Corpus.Tweets = block
	}
	if d.Truth, err = st.Truth(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

func loadCities(path string) ([]gazetteer.City, error) {
	var cities []gazetteer.City
	err := readLines(path, 6, func(lineNo int, f []string) error {
		id, err := strconv.Atoi(f[0])
		if err != nil || id != len(cities) {
			return fmt.Errorf("bad or out-of-order city id %q", f[0])
		}
		lat, err1 := strconv.ParseFloat(f[3], 64)
		lon, err2 := strconv.ParseFloat(f[4], 64)
		pop, err3 := strconv.Atoi(f[5])
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("bad city numeric fields")
		}
		cities = append(cities, gazetteer.City{
			Name: f[1], State: f[2],
			Point:      geo.Point{Lat: lat, Lon: lon},
			Population: pop,
		})
		return nil
	})
	return cities, err
}

// writeLines creates path and streams table rows through a buffered writer.
func writeLines(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close() //mlp:allow closecheck error path: the fill error is returned; a close error on the doomed file adds nothing
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close() //mlp:allow closecheck error path: the Flush error is returned; a close error on the doomed file adds nothing
		return err
	}
	return f.Close()
}

// readLines parses a TSV file with exactly wantFields fields per line,
// reporting the file and line number on error. handle must not keep the
// field slice past its call: the scanner reuses it. It shares tsvScanner
// with the streaming loader, so both paths get the explicit line-length
// cap and the named ErrLineTooLong on overlong rows.
func readLines(path string, wantFields int, handle func(int, []string) error) error {
	sc, err := openTSV(path, wantFields)
	if err != nil {
		return err
	}
	defer sc.close()
	for {
		f, err := sc.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := handle(sc.lineNo, f); err != nil {
			return sc.errf(err)
		}
	}
}

// sanitize strips characters that would corrupt the TSV framing.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		if r == '\t' || r == '\n' || r == '\r' {
			return ' '
		}
		return r
	}, s)
}
