package act

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"github.com/actindex/act/internal/data"
)

// TestBuildGolden pins what the build pipeline produces, byte for byte: the
// trie arena, the lookup table and the geometry section of the serialized
// index, for the two maps the repository benchmark builds, at its ε. The
// hashes were recorded on the commit before the merge became a radix sort
// and a forward pass and the coverer stopped measuring every cell; an
// optimization of the build leaves them alone, a change of what is built
// re-records them and says why.
func TestBuildGolden(t *testing.T) {
	const eps = 60
	cases := []struct {
		name                string
		set                 func() (*data.PolygonSet, error)
		arena, table, store string
		// achieved is the largest boundary-cell diagonal, measured cell by
		// cell.
		achieved float64
	}{
		{
			name:     "census-400",
			set:      func() (*data.PolygonSet, error) { return data.CensusBlocks(1, 400) },
			arena:    "cac472a3e4c4bf9da2eb43f93a9ebbfcdd8905e1a64ae3b57f1087383e97b652",
			table:    "8d158e1f09fa3b471b3b04ccaa560cde29b3e1e754c68399bbf62e20e58f7925",
			store:    "452071859a1bdb32e7ce3cecc6ffffdd844f319298bcd3d2d70a2404db65f007",
			achieved: 34.746043777255004,
		},
		{
			name:     "neighborhoods",
			set:      func() (*data.PolygonSet, error) { return data.Neighborhoods(1) },
			arena:    "64b6b52e68ccdefc554d67ce5487aa10ae5e6c3ff29d50edea496b67c37332ae",
			table:    "08b72f8ac03077d845c8a2d8843d59a3626dc28fa12cdb57bd32eba1b96a78cb",
			store:    "085e1729dab13862dba4e39342d78e78e2b108778ccdd10c5f1182bee1fba4b4",
			achieved: 34.746043777255004,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set, err := tc.set()
			if err != nil {
				t.Fatal(err)
			}
			ix, err := New(set.Polygons, WithPrecision(eps))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := ix.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			file := buf.Bytes()
			h, err := decodeFlatHeader((*[flatHeaderSize]byte)(file))
			if err != nil {
				t.Fatal(err)
			}
			for _, sec := range []struct {
				name     string
				from, to uint64
				want     string
			}{
				{"trie arena", h.arenaOff, h.tableOff, tc.arena},
				{"lookup table", h.tableOff, h.tableEnd(), tc.table},
				{"geometry", h.geomOff, h.fileSize, tc.store},
			} {
				sum := sha256.Sum256(file[sec.from:sec.to])
				if got := hex.EncodeToString(sum[:]); got != sec.want {
					t.Errorf("%s (%d bytes): sha256 %s, want %s", sec.name, sec.to-sec.from, got, sec.want)
				}
			}
			got := ix.Stats().AchievedPrecisionMeters
			if got > eps || math.Abs(got-tc.achieved) > 1e-9*tc.achieved {
				t.Errorf("achieved precision %.17g m, want %.17g m within 1e-9 and at most ε = %d m", got, tc.achieved, eps)
			}
		})
	}
}
