package core

import (
	"bytes"
	"math"
	"testing"

	"mlprofile/internal/synth"
)

// FuzzDecodeSnapshot feeds DecodeSnapshot arbitrary bytes against a
// tiny fitted world, with the trailing checksum resealed so that
// mutations reach the section parsers. Decoding must never panic, and a
// model it accepts must re-encode to bytes that decode and re-encode to
// themselves. The input itself need not survive the round trip: retired
// config slots are read and ignored, and venue triples may arrive
// unsorted or split. The seeds are the world's own snapshot and the
// corrupted and forged variants of TestSnapshotRejectsCorruption and
// TestSnapshotRejectsBadAlpha. The world is kept small (a 2 KB
// snapshot) because the fuzzer minimizes every new input byte by byte.
// Run it with
//
//	go test -run '^$' -fuzz '^FuzzDecodeSnapshot$' -fuzztime 30s ./internal/core
func FuzzDecodeSnapshot(f *testing.F) {
	d, err := synth.Generate(synth.Config{Seed: 11, NumUsers: 12, NumLocations: 10, MeanFriends: 3, MeanTweets: 3})
	if err != nil {
		f.Fatal(err)
	}
	c := &d.Corpus
	m, err := Fit(c, Config{Seed: 3, Iterations: 2})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.EncodeSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := DecodeSnapshot(c, bytes.NewReader(raw)); err != nil {
		f.Fatalf("the fitted world's own snapshot is refused: %v", err)
	}

	f.Add(raw)
	for _, cut := range []int{len(raw) - 1, len(raw) / 2, 40, 4} {
		f.Add(raw[:cut])
	}
	flipped := bytes.Clone(raw)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("definitely not a snapshot, just some text"))
	for _, alpha := range []float64{0, 0.5, math.Inf(1), math.Inf(-1), math.NaN()} {
		f.Add(withAlpha(raw, alpha))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeSnapshot(c, bytes.NewReader(reseal(bytes.Clone(data))))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := m.EncodeSnapshot(&first); err != nil {
			t.Fatal(err)
		}
		again, err := DecodeSnapshot(c, bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot refused: %v", err)
		}
		var second bytes.Buffer
		if err := again.EncodeSnapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("re-encoding an accepted snapshot is not a fixed point")
		}
	})
}
