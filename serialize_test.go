package act

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"math/rand"
	"strings"
	"testing"

	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geo"
)

func buildTestIndex(t *testing.T, gk GridKind) (*Index, *data.PolygonSet) {
	t.Helper()
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "ser", NumRegions: 15, Lattice: 64, Seed: 201,
		BoundaryJitter: 0.5, HoleFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(set.Polygons, WithPrecision(20), WithGrid(gk))
	if err != nil {
		t.Fatal(err)
	}
	return idx, set
}

func TestIndexSerializationRoundTrip(t *testing.T) {
	for _, gk := range []GridKind{PlanarGrid, CubeFaceGrid} {
		idx, set := buildTestIndex(t, gk)
		var buf bytes.Buffer
		n, err := idx.WriteTo(&buf)
		if err != nil {
			t.Fatalf("%v: %v", gk, err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("%v: WriteTo reported %d bytes, wrote %d", gk, n, buf.Len())
		}
		loaded, err := ReadIndex(&buf)
		if err != nil {
			t.Fatalf("%v: %v", gk, err)
		}
		if loaded.PrecisionMeters() != idx.PrecisionMeters() ||
			loaded.Status().Live != idx.Status().Live ||
			loaded.GridKind().String() != idx.GridKind().String() {
			t.Fatalf("%v: metadata mismatch", gk)
		}
		if loaded.Status().Build.IndexedCells != idx.Status().Build.IndexedCells ||
			loaded.Status().Build.TrieBytes != idx.Status().Build.TrieBytes {
			t.Errorf("%v: stats mismatch: %+v vs %+v", gk, loaded.Status().Build, idx.Status().Build)
		}

		// Lookups (approximate and exact) identical across the round trip.
		rng := rand.New(rand.NewSource(202))
		b := set.Bound
		var r1, r2 Result
		for n := 0; n < 3000; n++ {
			ll := geo.LatLng{
				Lat: b.MinLat + rng.Float64()*(b.MaxLat-b.MinLat),
				Lng: b.MinLng + rng.Float64()*(b.MaxLng-b.MinLng),
			}
			h1 := mustLookup(t, idx, ll, Approximate, &r1)
			h2 := mustLookup(t, loaded, ll, Approximate, &r2)
			if h1 != h2 || len(r1.True) != len(r2.True) || len(r1.Candidates) != len(r2.Candidates) {
				t.Fatalf("%v: lookup diverges at %v: %+v vs %+v", gk, ll, r1, r2)
			}
			for i := range r1.True {
				if r1.True[i] != r2.True[i] {
					t.Fatalf("%v: true ids diverge at %v", gk, ll)
				}
			}
			h1 = mustLookup(t, idx, ll, Exact, &r1)
			h2 = mustLookup(t, loaded, ll, Exact, &r2)
			if h1 != h2 || len(r1.True) != len(r2.True) {
				t.Fatalf("%v: exact lookup diverges at %v", gk, ll)
			}
		}
	}
}

// TestJoinEngineAfterRoundTrip runs the streaming join engine through a
// deserialized index and demands results identical to the original — for
// both grids, closing the CubeFaceGrid gap: the engine's cell-sorted batch
// path walks root skips and prefixes reconstructed by TrieFromFlat, and exact
// mode exercises the deserialized projected polygons.
func TestJoinEngineAfterRoundTrip(t *testing.T) {
	for _, gk := range []GridKind{PlanarGrid, CubeFaceGrid} {
		idx, set := buildTestIndex(t, gk)
		var buf bytes.Buffer
		if _, err := idx.WriteTo(&buf); err != nil {
			t.Fatalf("%v: %v", gk, err)
		}
		loaded, err := ReadIndex(&buf)
		if err != nil {
			t.Fatalf("%v: %v", gk, err)
		}
		pts, err := data.GeneratePoints(data.PointConfig{N: 30000, Seed: 203, Polygons: set})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []JoinMode{Approximate, Exact} {
			origPairs, ost := joinPairs(t, idx, pts, mode, 2)
			loadPairs, lst := joinPairs(t, loaded, pts, mode, 2)
			if ost.Pairs() != lst.Pairs() || ost.Misses != lst.Misses {
				t.Fatalf("%v/%v: stats diverge: %+v vs %+v", gk, mode, ost, lst)
			}
			if len(origPairs) != len(loadPairs) {
				t.Fatalf("%v/%v: %d pairs vs %d after round trip", gk, mode, len(origPairs), len(loadPairs))
			}
			for i := range origPairs {
				if origPairs[i] != loadPairs[i] {
					t.Fatalf("%v/%v: pair %d diverges: %+v vs %+v", gk, mode, i, origPairs[i], loadPairs[i])
				}
			}
			origCounts, _ := joinCounts(t, idx, pts, mode, 1)
			loadCounts, _ := joinCounts(t, loaded, pts, mode, 4)
			for i := range origCounts {
				if origCounts[i] != loadCounts[i] {
					t.Fatalf("%v/%v: polygon %d count %d vs %d", gk, mode, i, origCounts[i], loadCounts[i])
				}
			}
		}
	}
}

func TestIndexSerializationCorruption(t *testing.T) {
	idx, _ := buildTestIndex(t, PlanarGrid)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Truncated stream.
	if _, err := ReadIndex(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Error("truncated stream should fail")
	}
	// Bad magic.
	bad := append([]byte("NOPE"), good[4:]...)
	if _, err := ReadIndex(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic should fail")
	}
	// Flip a byte inside the trie blob: the checksum must catch it.
	flip := append([]byte(nil), good...)
	flip[len(flip)-1000] ^= 0x40
	if _, err := ReadIndex(bytes.NewReader(flip)); err == nil {
		t.Error("corrupted trie should fail the checksum")
	} else if !strings.Contains(err.Error(), "checksum") &&
		!strings.Contains(err.Error(), "implausible") &&
		!strings.Contains(err.Error(), "invalid") {
		t.Logf("corruption detected via: %v", err)
	}
	// Garbage input.
	if _, err := ReadIndex(strings.NewReader("not an index at all")); err == nil {
		t.Error("garbage should fail")
	}
}

// TestReadIndexRejectsUndercountedHeader forges the header of an
// approximate-only v3 file — with its checksum recomputed, so the polygon
// cross-check and not the CRC is what fires — to declare fewer polygons
// than the trie references: loading must fail instead of handing out an
// index whose Join would later panic on counts[polygon]++.
func TestReadIndexRejectsUndercountedHeader(t *testing.T) {
	idx, _ := buildTestIndex(t, PlanarGrid)
	var buf bytes.Buffer
	if _, err := stripGeometry(idx).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// numPolys sits at byte offset 48 of the v3 header; the headerCRC over
	// bytes [0, 256) must be recomputed or the checksum masks the forgery.
	forge := func(numPolys uint64) []byte {
		out := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint64(out[48:], numPolys)
		binary.LittleEndian.PutUint64(out[flatHeaderCRCBytes:],
			crc64.Checksum(out[:flatHeaderCRCBytes], flatCRCTable))
		return out
	}
	if _, err := ReadIndex(bytes.NewReader(forge(0))); err == nil {
		t.Fatal("undercounted header accepted")
	}
	// Inflating the count instead must also fail: Join sizes per-polygon
	// count slices from the header, so a forged 2^29 would otherwise
	// allocate gigabytes per request on a tiny index.
	if _, err := ReadIndex(bytes.NewReader(forge(1 << 29))); err == nil {
		t.Fatal("inflated header accepted")
	}
	// An unforged header with a flipped byte must fail the header checksum.
	flipped := append([]byte(nil), buf.Bytes()...)
	flipped[48] ^= 0x01
	if _, err := ReadIndex(bytes.NewReader(flipped)); err == nil ||
		!strings.Contains(err.Error(), "header checksum") {
		t.Fatalf("tampered header not caught by checksum: %v", err)
	}
}
