package act

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/actindex/act/internal/data"
)

// writeIndexFile serializes the index to a temp file and returns the path.
func writeIndexFile(t testing.TB, ix *Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.actx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// openMapped opens the file and requires the zero-copy path (skipping the
// test on platforms without mmap, where openHeap's cases cover the load).
func openMapped(t *testing.T, path string) *Index {
	t.Helper()
	ix, err := OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Status().Mapped {
		ix.Close()
		t.Skip("mmap unavailable on this platform")
	}
	return ix
}

// openHeap opens the file through OpenIndex's heap source, the one a
// platform without mmap, or a filesystem refusing it, takes.
func openHeap(path string) (*Index, error) {
	return openIndex(path, func(*os.File, int64) ([]byte, error) { return nil, errors.New("mmap refused") })
}

// samplePoints draws points across (and slightly beyond) the set's bounds
// so the sample mixes interior hits, boundary candidates, and misses.
func samplePoints(set *data.PolygonSet, n int, seed int64) []LatLng {
	rng := rand.New(rand.NewSource(seed))
	b := set.Bound
	padLat := (b.MaxLat - b.MinLat) * 0.1
	padLng := (b.MaxLng - b.MinLng) * 0.1
	pts := make([]LatLng, n)
	for i := range pts {
		pts[i] = LatLng{
			Lat: b.MinLat - padLat + rng.Float64()*(b.MaxLat-b.MinLat+2*padLat),
			Lng: b.MinLng - padLng + rng.Float64()*(b.MaxLng-b.MinLng+2*padLng),
		}
	}
	return pts
}

// TestOpenIndexMappedParity is the zero-copy correctness property: an index
// served from a file mapping must be result-identical to the heap-built
// original on every read path — scalar lookups, exact lookups, cell-sorted
// batches, the exact join, and materialized pairs.
func TestOpenIndexMappedParity(t *testing.T) {
	for _, gk := range []GridKind{PlanarGrid, CubeFaceGrid} {
		built, set := buildTestIndex(t, gk)
		mapped := openMapped(t, writeIndexFile(t, built))
		defer mapped.Close()

		pts := samplePoints(set, 20000, 301)

		// Scalar walks: approximate and exact.
		var r1, r2 Result
		for _, p := range pts[:4000] {
			h1 := mustLookup(t, built, p, Approximate, &r1)
			h2 := mustLookup(t, mapped, p, Approximate, &r2)
			if h1 != h2 || !r1.Equal(&r2) {
				t.Fatalf("%v: Lookup diverges at %v: %+v vs %+v", gk, p, r1, r2)
			}
			h1 = mustLookup(t, built, p, Exact, &r1)
			h2 = mustLookup(t, mapped, p, Exact, &r2)
			if h1 != h2 || !r1.Equal(&r2) {
				t.Fatalf("%v: exact Lookup diverges at %v: %+v vs %+v", gk, p, r1, r2)
			}
		}

		// Cell-sorted batch probes.
		b1, err := built.LookupBatch(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := mapped.LookupBatch(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b1 {
			if !b1[i].Equal(&b2[i]) {
				t.Fatalf("%v: LookupBatch diverges at %d: %+v vs %+v", gk, i, b1[i], b2[i])
			}
		}

		// Joins: exact counts and materialized pairs, across thread counts.
		c1, _, err := built.JoinContext(context.Background(), pts, Exact, 1)
		if err != nil {
			t.Fatal(err)
		}
		c2, _, err := mapped.JoinContext(context.Background(), pts, Exact, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(c1) != len(c2) {
			t.Fatalf("%v: exact join count lengths %d vs %d", gk, len(c1), len(c2))
		}
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("%v: exact join polygon %d: %d vs %d", gk, i, c1[i], c2[i])
			}
		}
		p1, _ := joinPairs(t, built, pts, Approximate, 2)
		p2, _ := joinPairs(t, mapped, pts, Approximate, 2)
		if len(p1) != len(p2) {
			t.Fatalf("%v: Pairs lengths %d vs %d", gk, len(p1), len(p2))
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("%v: pair %d diverges: %+v vs %+v", gk, i, p1[i], p2[i])
			}
		}
	}
}

// TestOpenIndexCloseIdle verifies the mapping lifecycle on an idle index:
// Close releases, a second Close is a harmless no-op, and Close on a
// heap-backed index is a no-op too.
func TestOpenIndexCloseIdle(t *testing.T) {
	built, set := buildTestIndex(t, PlanarGrid)
	ix := openMapped(t, writeIndexFile(t, built))

	// Serve something first so the mapping is demonstrably live.
	var r Result
	pts := samplePoints(set, 100, 303)
	hits := 0
	for _, p := range pts {
		if mustLookup(t, ix, p, Approximate, &r) {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no hits before Close; sample is useless")
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := built.Close(); err != nil {
		t.Fatalf("Close on heap index: %v", err)
	}
}

// TestOpenIndexRejectsCorruptV3 drives OpenIndex, mapped and through its
// heap source, with damaged files: truncation, trailing junk, and header
// corruption must all be rejected at open time — never deferred to a fault
// during a lookup.
func TestOpenIndexRejectsCorruptV3(t *testing.T) {
	built, _ := buildTestIndex(t, PlanarGrid)
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	cases := map[string][]byte{
		"truncated-arena":  good[:len(good)-512],
		"truncated-header": good[:100],
		"trailing-junk":    append(append([]byte{}, good...), 0, 1, 2, 3),
	}
	// Flip one byte inside the checksummed header region (the grid kind):
	// the header CRC must catch it.
	flipped := append([]byte{}, good...)
	flipped[8] ^= 0xff
	cases["header-bitflip"] = flipped
	// Forge the node count without fixing dependent offsets: the header's
	// internal consistency checks must catch it even with a valid CRC.
	forged := append([]byte{}, good...)
	forged[56] ^= 0x01
	cases["forged-numnodes"] = forged

	for name, b := range cases {
		path := write(name, b)
		if _, err := OpenIndex(path); err == nil {
			t.Errorf("%s: OpenIndex accepted a damaged file", name)
		}
		if _, err := openHeap(path); err == nil {
			t.Errorf("%s: OpenIndex's heap source accepted a damaged file", name)
		}
	}

	// Forge ε (bytes 24–32) or the achieved precision (32–40) with the
	// header CRC recomputed: only the value checks can refuse these, on
	// both readers.
	for _, f := range []struct {
		field string
		off   int
		v     float64
	}{
		{"precision", 24, math.NaN()}, {"precision", 24, math.Inf(1)}, {"precision", 24, 0}, {"precision", 24, -1},
		{"achieved", 32, math.NaN()}, {"achieved", 32, math.Inf(1)}, {"achieved", 32, -1},
	} {
		forged := append([]byte{}, good...)
		binary.LittleEndian.PutUint64(forged[f.off:], math.Float64bits(f.v))
		binary.LittleEndian.PutUint64(forged[flatHeaderCRCBytes:], crc64.Checksum(forged[:flatHeaderCRCBytes], flatCRCTable))
		name := fmt.Sprintf("forged-%s-%v", f.field, f.v)
		if _, err := ReadIndex(bytes.NewReader(forged)); err == nil || !strings.Contains(err.Error(), f.field) {
			t.Errorf("%s: ReadIndex: got %v, want an error naming %s", name, err, f.field)
		}
		path := write(name, forged)
		if _, err := OpenIndex(path); err == nil || !strings.Contains(err.Error(), f.field) {
			t.Errorf("%s: OpenIndex: got %v, want an error naming %s", name, err, f.field)
		}
		if _, err := openHeap(path); err == nil || !strings.Contains(err.Error(), f.field) {
			t.Errorf("%s: heap source: got %v, want an error naming %s", name, err, f.field)
		}
	}

	// The pristine bytes still load on every source, proving the cases
	// failed for their damage and not some environmental reason.
	if _, err := ReadIndex(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine bytes rejected by ReadIndex: %v", err)
	}
	path := write("pristine", good)
	ix, err := OpenIndex(path)
	if err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}
	ix.Close()
	heap, err := openHeap(path)
	if err != nil {
		t.Fatalf("pristine file rejected by the heap source: %v", err)
	}
	var again bytes.Buffer
	if _, err := heap.WriteTo(&again); err != nil || heap.Status().Mapped || !bytes.Equal(again.Bytes(), good) {
		t.Fatalf("heap source: Mapped %v, WriteTo error %v, same bytes %v", heap.Status().Mapped, err, bytes.Equal(again.Bytes(), good))
	}
}

// TestDecodeMisalignedImage: a file image one byte off 8-byte alignment
// takes the decoder's copy branch — the only branch a big-endian host has —
// under both policies, and serves and re-serializes exactly like the index
// it was written from; the aligned image is aliased on a little-endian host.
func TestDecodeMisalignedImage(t *testing.T) {
	dense, denseSet := buildTestIndex(t, CubeFaceGrid)
	sparse, sparseSet, _ := buildSparseIndex(t)
	for _, tc := range []struct {
		name string
		ix   *Index
		set  *data.PolygonSet
	}{{"dense-ids", dense, denseSet}, {"sparse-ids", sparse, sparseSet}} {
		var file bytes.Buffer
		if _, err := tc.ix.WriteTo(&file); err != nil {
			t.Fatal(err)
		}
		for off := range 2 {
			img := make([]byte, file.Len()+off)[off:]
			copy(img, file.Bytes())
			for _, checkCRC := range []bool{true, false} {
				tag := fmt.Sprintf("%s at offset %d, checkCRC %v", tc.name, off, checkCRC)
				ix, err := decodeImage(img, nil, checkCRC)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				wantAlias := hostLittleEndian && off == 0
				if got := (&mapping{data: img}).backs(ix.live.Load().trie); got != wantAlias {
					t.Fatalf("%s: trie aliases the image: %v, want %v", tag, got, wantAlias)
				}
				checkLookupParity(t, tag, tc.ix, ix, tc.set, true)
				var again bytes.Buffer
				if _, err := ix.WriteTo(&again); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if !bytes.Equal(again.Bytes(), file.Bytes()) {
					t.Errorf("%s: re-serialized file differs (%d vs %d bytes)", tag, again.Len(), file.Len())
				}
			}
		}
	}
}

// TestMappedAfterCompaction: a recovered index serves its snapshot's trie
// from the mapping, inserts in its overlay included, and stops reporting
// Mapped once a compaction has replaced that trie with a heap-built one.
func TestMappedAfterCompaction(t *testing.T) {
	built, set := buildTestIndex(t, PlanarGrid)
	rec, err := Recover(writeIndexFile(t, built), filepath.Join(t.TempDir(), "delta.wal"), WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !rec.Status().Mapped {
		t.Skip("mmap unavailable on this platform")
	}
	ctx := context.Background()
	if _, err := rec.Insert(ctx, set.Polygons[0]); err != nil {
		t.Fatal(err)
	}
	if !rec.Status().Mapped {
		t.Fatal("an insert unmapped the base trie")
	}
	if err := rec.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if rec.Status().Mapped {
		t.Fatal("Mapped reports true after a compaction replaced the mapped trie")
	}
}
