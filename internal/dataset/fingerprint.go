package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"mlprofile/internal/gazetteer"
)

// FingerprintSection names one fingerprinted slice of the world, in
// encoding order. Separate section hashes let a mismatch error say *what*
// differs (a swapped gazetteer vs. an edited edge list).
type FingerprintSection int

const (
	SectionGazetteer FingerprintSection = iota
	SectionVenues
	SectionUsers
	SectionEdges
	SectionTweets
	NumFingerprintSections
)

func (s FingerprintSection) String() string {
	switch s {
	case SectionGazetteer:
		return "gazetteer"
	case SectionVenues:
		return "venue vocabulary"
	case SectionUsers:
		return "user labels"
	case SectionEdges:
		return "following relationships"
	default:
		return "tweeting relationships"
	}
}

// fingerprintBufSize is how many bytes of encoded fields Fingerprint
// gathers before it writes them to the section hash.
const fingerprintBufSize = 32 << 10

// Fingerprint hashes each model-relevant section of the corpus: gazetteer
// geometry, venue vocabulary, user home labels, and both relationship
// sets. Handles and raw registered strings are deliberately excluded —
// they never enter inference, so renaming a user must not invalidate a
// model snapshot fitted against the corpus. Two corpora with equal
// fingerprints are interchangeable as far as the model is concerned,
// which is also what makes the fingerprint the equality criterion for
// the streamed and shard-merged load paths (stream_test.go).
func Fingerprint(c *Corpus) [NumFingerprintSections][sha256.Size]byte {
	var out [NumFingerprintSections][sha256.Size]byte
	// The fields are gathered in one buffer, so each section's hash sees
	// the same bytes as with a Write per field, in a few large writes. A
	// string longer than the buffer grows it.
	h := sha256.New()
	buf := make([]byte, 0, fingerprintBufSize)
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	u64 := func(v uint64) {
		buf = binary.LittleEndian.AppendUint64(buf, v)
		if len(buf) >= fingerprintBufSize {
			flush()
		}
	}
	str := func(s string) {
		u64(uint64(len(s)))
		buf = append(buf, s...)
	}
	sum := func(s FingerprintSection) {
		flush()
		h.Sum(out[s][:0])
		h.Reset()
	}

	for _, city := range c.Gaz.Cities() {
		str(city.Name)
		str(city.State)
		u64(math.Float64bits(city.Point.Lat))
		u64(math.Float64bits(city.Point.Lon))
		u64(uint64(city.Population))
	}
	sum(SectionGazetteer)

	for v := 0; v < c.Venues.Len(); v++ {
		venue := c.Venues.Venue(gazetteer.VenueID(v))
		str(venue.Name)
		u64(uint64(len(venue.Locations)))
		for _, l := range venue.Locations {
			u64(uint64(l))
		}
	}
	sum(SectionVenues)

	for _, u := range c.Users {
		u64(uint64(int64(u.Home)))
	}
	sum(SectionUsers)

	for _, e := range c.Edges {
		u64(uint64(e.From))
		u64(uint64(e.To))
	}
	sum(SectionEdges)

	for _, t := range c.Tweets {
		u64(uint64(t.User))
		u64(uint64(t.Venue))
	}
	sum(SectionTweets)
	return out
}
