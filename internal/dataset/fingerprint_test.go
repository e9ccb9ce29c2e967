package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mlprofile/internal/gazetteer"
	"mlprofile/internal/geo"
)

// fingerprintUnbuffered is Fingerprint with one hash Write per field, as
// it was before its writes were buffered, kept as its oracle.
func fingerprintUnbuffered(c *Corpus) [NumFingerprintSections][sha256.Size]byte {
	var out [NumFingerprintSections][sha256.Size]byte
	var b [8]byte
	u64 := func(h io.Writer, v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(h io.Writer, s string) {
		u64(h, uint64(len(s)))
		io.WriteString(h, s)
	}

	h := sha256.New()
	for _, city := range c.Gaz.Cities() {
		str(h, city.Name)
		str(h, city.State)
		u64(h, math.Float64bits(city.Point.Lat))
		u64(h, math.Float64bits(city.Point.Lon))
		u64(h, uint64(city.Population))
	}
	h.Sum(out[SectionGazetteer][:0])

	h = sha256.New()
	for v := 0; v < c.Venues.Len(); v++ {
		venue := c.Venues.Venue(gazetteer.VenueID(v))
		str(h, venue.Name)
		u64(h, uint64(len(venue.Locations)))
		for _, l := range venue.Locations {
			u64(h, uint64(l))
		}
	}
	h.Sum(out[SectionVenues][:0])

	h = sha256.New()
	for _, u := range c.Users {
		u64(h, uint64(int64(u.Home)))
	}
	h.Sum(out[SectionUsers][:0])

	h = sha256.New()
	for _, e := range c.Edges {
		u64(h, uint64(e.From))
		u64(h, uint64(e.To))
	}
	h.Sum(out[SectionEdges][:0])

	h = sha256.New()
	for _, t := range c.Tweets {
		u64(h, uint64(t.User))
		u64(h, uint64(t.Venue))
	}
	h.Sum(out[SectionTweets][:0])
	return out
}

// TestFingerprintMatchesUnbuffered: buffering the hash writes must leave
// every section digest unchanged — on hostile random worlds, on a city
// (and so venue) name longer than the buffer, and on sections that span
// many buffer flushes.
func TestFingerprintMatchesUnbuffered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		d := hostileWorld(t, rng)
		if got, want := Fingerprint(&d.Corpus), fingerprintUnbuffered(&d.Corpus); got != want {
			t.Fatalf("trial %d: buffered fingerprint differs from the unbuffered one", trial)
		}
	}

	gaz, err := gazetteer.New([]gazetteer.City{
		{Name: strings.Repeat("long name ", fingerprintBufSize/4), State: "TX", Point: geo.Point{Lat: 30.27, Lon: -97.74}, Population: 5},
		{Name: "austin", State: "TX", Point: geo.Point{Lat: 30.27, Lon: -97.74}, Population: 656562},
		{Name: "portland", State: "OR", Point: geo.Point{Lat: 45.52, Lon: -122.68}, Population: 529121},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gaz.City(0).Name) <= fingerprintBufSize {
		t.Fatalf("name of %d bytes does not exceed the %d-byte buffer", len(gaz.City(0).Name), fingerprintBufSize)
	}
	c := &Corpus{Gaz: gaz, Venues: gazetteer.BuildVenueVocab(gaz)}
	const n = 3000
	for u := 0; u < n; u++ {
		home := NoCity
		if u%3 != 0 {
			home = gazetteer.CityID(rng.Intn(gaz.Len()))
		}
		c.Users = append(c.Users, User{ID: UserID(u), Home: home})
	}
	for e := 0; e < 10*n; e++ {
		from, to := UserID(rng.Intn(n)), UserID(rng.Intn(n))
		if from != to {
			c.Edges = append(c.Edges, FollowEdge{From: from, To: to})
		}
	}
	for k := 0; k < 10*n; k++ {
		c.Tweets = append(c.Tweets, TweetRel{User: UserID(rng.Intn(n)), Venue: gazetteer.VenueID(rng.Intn(c.Venues.Len()))})
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := Fingerprint(c), fingerprintUnbuffered(c); got != want {
		t.Fatal("buffered fingerprint differs from the unbuffered one on the long-name world")
	}
}
