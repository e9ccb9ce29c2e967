package dataset

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"mlprofile/internal/gazetteer"
)

// This file implements the streaming corpus loader: a chunked TSV reader
// over a dataset directory that materializes users, edges and tweets
// block by block with bounded peak memory, instead of Load's one-shot
// whole-corpus parse. Load itself is a thin wrapper over the stream
// (io.go), so the two paths share every parsing and error-reporting code
// path and the streamed result is bit-identical to the in-memory one
// (same corpus fingerprint — stream_test.go locks this).

// ErrLineTooLong is returned (wrapped, with file and line context) when a
// TSV row exceeds maxLineBytes. Before this error existed, bufio.Scanner's
// token-too-long failure surfaced bare, with no file context and at a far
// smaller cap.
var ErrLineTooLong = errors.New("dataset: line exceeds maximum length")

const (
	// scanInitBytes is the scanner's initial buffer; maxLineBytes the hard
	// cap a single row may grow to. 16 MiB is far beyond any sane TSV row
	// but keeps a pathological file from ballooning memory unboundedly.
	scanInitBytes = 64 * 1024
	maxLineBytes  = 16 * 1024 * 1024

	// streamBlockRows is the default block granularity the wrapper load
	// paths request: large enough to amortize call overhead, small enough
	// that a block is a rounding error against the corpus.
	streamBlockRows = 8192
)

// tsvScanner walks one TSV file with exactly wantFields fields per
// non-empty line, carrying the file/line context every error is reported
// with. It is the shared substrate of readLines (io.go) and Stream.
type tsvScanner struct {
	f      *os.File
	sc     *bufio.Scanner
	base   string // file name for error context
	want   int
	lineNo int
	fields []string // reused by next: one allocation per line fewer
}

func openTSV(path string, wantFields int) (*tsvScanner, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, scanInitBytes), maxLineBytes)
	return &tsvScanner{f: f, sc: sc, base: filepath.Base(path), want: wantFields}, nil
}

// next returns the fields of the next non-empty line, or io.EOF when the
// file is exhausted. The slice is reused by the following call; the
// strings themselves stay valid. Overlong lines surface as
// ErrLineTooLong with file and line context instead of bufio's bare
// ErrTooLong.
func (s *tsvScanner) next() ([]string, error) {
	for s.sc.Scan() {
		s.lineNo++
		line := s.sc.Text()
		if line == "" {
			continue
		}
		fields := s.fields[:0]
		for {
			i := strings.IndexByte(line, '\t')
			if i < 0 {
				break
			}
			fields = append(fields, line[:i])
			line = line[i+1:]
		}
		fields = append(fields, line)
		s.fields = fields
		if len(fields) != s.want {
			return nil, fmt.Errorf("dataset: %s:%d: %d fields, want %d", s.base, s.lineNo, len(fields), s.want)
		}
		return fields, nil
	}
	if err := s.sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("dataset: %s:%d: %w (cap %d bytes)", s.base, s.lineNo+1, ErrLineTooLong, maxLineBytes)
		}
		return nil, err
	}
	return nil, io.EOF
}

// errf wraps a row-level parse error with the scanner's current file and
// line context — the same "dataset: file:line: …" shape readLines reports.
func (s *tsvScanner) errf(err error) error {
	return fmt.Errorf("dataset: %s:%d: %w", s.base, s.lineNo, err)
}

func (s *tsvScanner) close() error { return s.f.Close() }

// Stream is an open dataset directory being read incrementally. The
// gazetteer and venue vocabulary are loaded eagerly (they are the shared
// location universe every row resolves against); users, edges and tweets
// are parsed block by block on demand, so peak memory is bounded by the
// caller's block size rather than the corpus size.
type Stream struct {
	gaz    *gazetteer.Gazetteer
	venues *gazetteer.VenueVocab
	dir    string

	users, edges, tweets *tsvScanner
	nextUser             int // expected next dense user id
}

// OpenStream opens the dataset directory for streaming. The three
// relationship tables are opened immediately, so a missing or unreadable
// table surfaces here rather than mid-stream.
func OpenStream(dir string) (*Stream, error) {
	cities, err := loadCities(filepath.Join(dir, citiesFile))
	if err != nil {
		return nil, err
	}
	gaz, err := gazetteer.New(cities)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", citiesFile, err)
	}
	st := &Stream{gaz: gaz, venues: gazetteer.BuildVenueVocab(gaz), dir: dir}
	if st.users, err = openTSV(filepath.Join(dir, usersFile), 4); err != nil {
		return nil, err
	}
	if st.edges, err = openTSV(filepath.Join(dir, edgesFile), 2); err != nil {
		st.Close()
		return nil, err
	}
	if st.tweets, err = openTSV(filepath.Join(dir, tweetsFile), 2); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// Gazetteer returns the eagerly loaded location universe.
func (s *Stream) Gazetteer() *gazetteer.Gazetteer { return s.gaz }

// Venues returns the venue vocabulary derived from the gazetteer.
func (s *Stream) Venues() *gazetteer.VenueVocab { return s.venues }

// Close releases the underlying table files. Safe on a partially opened
// stream.
func (s *Stream) Close() error {
	var err error
	for _, sc := range []*tsvScanner{s.users, s.edges, s.tweets} {
		if sc != nil {
			if cerr := sc.close(); err == nil {
				err = cerr
			}
		}
	}
	s.users, s.edges, s.tweets = nil, nil, nil
	return err
}

// parseUserRow parses one users.tsv row, enforcing the dense in-order id
// scheme (row i must carry id i).
func parseUserRow(f []string, wantID int) (User, error) {
	id, err := strconv.Atoi(f[0])
	if err != nil || id != wantID {
		return User{}, fmt.Errorf("bad or out-of-order user id %q", f[0])
	}
	home := NoCity
	if f[2] != "-" {
		h, err := strconv.Atoi(f[2])
		if err != nil {
			return User{}, fmt.Errorf("bad home %q", f[2])
		}
		home = gazetteer.CityID(h)
	}
	return User{ID: UserID(id), Handle: f[1], Home: home, Registered: f[3]}, nil
}

// parseEdgeRow parses one edges.tsv row.
func parseEdgeRow(f []string) (FollowEdge, error) {
	from, err1 := strconv.Atoi(f[0])
	to, err2 := strconv.Atoi(f[1])
	if err1 != nil || err2 != nil {
		return FollowEdge{}, fmt.Errorf("bad edge %q -> %q", f[0], f[1])
	}
	return FollowEdge{From: UserID(from), To: UserID(to)}, nil
}

// parseTweetRow parses one tweets.tsv row, resolving the venue name
// against the vocabulary.
func parseTweetRow(f []string, venues *gazetteer.VenueVocab) (TweetRel, error) {
	u, err := strconv.Atoi(f[0])
	if err != nil {
		return TweetRel{}, fmt.Errorf("bad tweet user %q", f[0])
	}
	vid, ok := venues.ID(f[1])
	if !ok {
		return TweetRel{}, fmt.Errorf("unknown venue %q", f[1])
	}
	return TweetRel{User: UserID(u), Venue: vid}, nil
}

// NextUserBlock returns up to max users, in file order, appending into
// dst (which may be nil). io.EOF signals exhaustion: it is returned only
// by a call that appended nothing, so callers drain with a plain
// `if err == io.EOF { break }` loop.
func (s *Stream) NextUserBlock(dst []User, max int) ([]User, error) {
	appended := 0
	for i := 0; i < max; i++ {
		f, err := s.users.next()
		if err == io.EOF {
			if appended == 0 {
				return dst, io.EOF
			}
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
		u, err := parseUserRow(f, s.nextUser)
		if err != nil {
			return dst, s.users.errf(err)
		}
		s.nextUser++
		dst = append(dst, u)
		appended++
	}
	return dst, nil
}

// NextEdgeBlock returns up to max following relationships, in file order,
// with the same append/EOF contract as NextUserBlock.
func (s *Stream) NextEdgeBlock(dst []FollowEdge, max int) ([]FollowEdge, error) {
	appended := 0
	for i := 0; i < max; i++ {
		f, err := s.edges.next()
		if err == io.EOF {
			if appended == 0 {
				return dst, io.EOF
			}
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
		e, err := parseEdgeRow(f)
		if err != nil {
			return dst, s.edges.errf(err)
		}
		dst = append(dst, e)
		appended++
	}
	return dst, nil
}

// NextTweetBlock returns up to max tweeting relationships, in file order,
// with the same append/EOF contract as NextUserBlock.
func (s *Stream) NextTweetBlock(dst []TweetRel, max int) ([]TweetRel, error) {
	appended := 0
	for i := 0; i < max; i++ {
		f, err := s.tweets.next()
		if err == io.EOF {
			if appended == 0 {
				return dst, io.EOF
			}
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
		t, err := parseTweetRow(f, s.venues)
		if err != nil {
			return dst, s.tweets.errf(err)
		}
		dst = append(dst, t)
		appended++
	}
	return dst, nil
}

// Truth reads the optional truth.json. A missing file is fine (nil, nil);
// any other read failure surfaces with file context — truth silently
// vanishing from a load is how evaluation results go quietly wrong.
func (s *Stream) Truth() (*GroundTruth, error) {
	raw, err := os.ReadFile(filepath.Join(s.dir, truthFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("dataset: %s: %w", truthFile, err)
	}
	var truth GroundTruth
	if err := json.Unmarshal(raw, &truth); err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", truthFile, err)
	}
	return &truth, nil
}

// countRows counts the non-empty lines of a TSV file without splitting or
// retaining them — the cheap first pass of LoadStreamed's exact-capacity
// allocation.
func countRows(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, scanInitBytes)
	n, lineLen := 0, 0
	for {
		chunk, err := r.ReadSlice('\n')
		lineLen += len(chunk)
		switch err {
		case nil:
			if lineLen > 1 { // anything beyond the '\n' itself
				n++
			}
			lineLen = 0
		case io.EOF:
			if lineLen > 0 { // unterminated final line
				n++
			}
			return n, nil
		case bufio.ErrBufferFull:
			// A long line spans buffer chunks; keep accumulating its length.
		default:
			return 0, err
		}
	}
}

// LoadStreamed reads a dataset directory through the streaming loader
// with bounded peak memory: a counting pass sizes each table, the slices
// are allocated once at exact capacity, and the fill pass appends block
// by block — no transient whole-file buffers and no append-doubling
// overshoot (Load's worst case holds ~2× the final slice mid-growth).
// The result is bit-identical to Load (same corpus fingerprint).
func LoadStreamed(dir string) (*Dataset, error) {
	nUsers, err := countRows(filepath.Join(dir, usersFile))
	if err != nil {
		return nil, err
	}
	nEdges, err := countRows(filepath.Join(dir, edgesFile))
	if err != nil {
		return nil, err
	}
	nTweets, err := countRows(filepath.Join(dir, tweetsFile))
	if err != nil {
		return nil, err
	}

	st, err := OpenStream(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()

	d := &Dataset{Corpus: Corpus{
		Gaz:    st.Gazetteer(),
		Venues: st.Venues(),
		Users:  make([]User, 0, nUsers),
		Edges:  make([]FollowEdge, 0, nEdges),
		Tweets: make([]TweetRel, 0, nTweets),
	}}
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
