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
// unsorted or split. Each input is decoded a second time with the
// world's loaded model as prev, the reload path that shares candidacy
// when the fingerprint and candidacy key match: it must reach the same
// verdict, and an accepted model must re-encode to the same bytes. The
// seeds are the world's own snapshot, the corrupted and forged variants
// of TestSnapshotRejectsCorruption and TestSnapshotRejectsBadAlpha, and
// under testdata/fuzz the venue counts of +Inf and len(Tweets)+1 that
// TestSnapshotRejectsBadVenueCount refuses. The world is kept small (a
// 2 KB snapshot) because the fuzzer minimizes every new input byte by
// byte. Run it with
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
	prev, err := DecodeSnapshot(c, bytes.NewReader(raw))
	if err != nil {
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
		data = reseal(bytes.Clone(data))
		m, err := DecodeSnapshot(c, bytes.NewReader(data))
		reloaded, rerr := decodeSnapshot(c, data, prev)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("fresh decode error %v, decode with prev error %v", err, rerr)
		}
		if err != nil {
			return
		}
		var first, shared bytes.Buffer
		if err := m.EncodeSnapshot(&first); err != nil {
			t.Fatal(err)
		}
		if err := reloaded.EncodeSnapshot(&shared); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), shared.Bytes()) {
			t.Fatal("decoding with prev re-encodes to other bytes than a fresh decode")
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
