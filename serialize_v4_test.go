package act

// Tests for the v4 flat format: sparse id spaces (removals that left
// permanent holes) round-trip through WriteTo → ReadIndex and the
// zero-copy OpenIndex path, the geometry section's dense→sparse remap
// keeps exact refinement intact, dense indexes keep emitting v3
// byte-identically, and a tampered id column is rejected by both readers.

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc64"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geo"
)

// buildSparseIndex builds a mutable index and removes every third polygon,
// compacting the holes into the base so the id space is permanently sparse.
func buildSparseIndex(t *testing.T, opts ...Option) (*Index, *data.PolygonSet, []uint32) {
	t.Helper()
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "v4", NumRegions: 12, Lattice: 64, Seed: 401,
		BoundaryJitter: 0.5, HoleFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(set.Polygons, append(opts, WithPrecision(20), WithDeltaThreshold(-1))...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var removed []uint32
	for id := 0; id < len(set.Polygons); id += 3 {
		if err := idx.Remove(ctx, uint32(id)); err != nil {
			t.Fatal(err)
		}
		removed = append(removed, uint32(id))
	}
	if err := idx.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	return idx, set, removed
}

// checkLookupParity compares approximate and exact lookups of two indexes
// over random points spanning the set.
func checkLookupParity(t *testing.T, tag string, a, b *Index, set *data.PolygonSet, exact bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(402))
	bd := set.Bound
	var r1, r2 Result
	for n := 0; n < 2000; n++ {
		ll := geo.LatLng{
			Lat: bd.MinLat + rng.Float64()*(bd.MaxLat-bd.MinLat),
			Lng: bd.MinLng + rng.Float64()*(bd.MaxLng-bd.MinLng),
		}
		mustLookup(t, a, ll, Approximate, &r1)
		mustLookup(t, b, ll, Approximate, &r2)
		if len(r1.True) != len(r2.True) || len(r1.Candidates) != len(r2.Candidates) {
			t.Fatalf("%s: lookup diverges at %v: %+v vs %+v", tag, ll, r1, r2)
		}
		for i := range r1.True {
			if r1.True[i] != r2.True[i] {
				t.Fatalf("%s: true ids diverge at %v", tag, ll)
			}
		}
		for i := range r1.Candidates {
			if r1.Candidates[i] != r2.Candidates[i] {
				t.Fatalf("%s: candidate ids diverge at %v", tag, ll)
			}
		}
		if exact {
			mustLookup(t, a, ll, Exact, &r1)
			mustLookup(t, b, ll, Exact, &r2)
			if len(r1.True) != len(r2.True) {
				t.Fatalf("%s: exact lookup diverges at %v", tag, ll)
			}
			for i := range r1.True {
				if r1.True[i] != r2.True[i] {
					t.Fatalf("%s: exact ids diverge at %v", tag, ll)
				}
			}
		}
	}
}

func TestV4SparseRoundTrip(t *testing.T) {
	for _, gk := range []GridKind{PlanarGrid, CubeFaceGrid} {
		idx, set, removed := buildSparseIndex(t, WithGrid(gk))
		var buf bytes.Buffer
		n, err := idx.WriteTo(&buf)
		if err != nil {
			t.Fatalf("%v: sparse WriteTo: %v", gk, err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("%v: WriteTo reported %d bytes, wrote %d", gk, n, buf.Len())
		}
		blob := buf.Bytes()
		if v := binary.LittleEndian.Uint32(blob[4:]); v != indexVersionSparse {
			t.Fatalf("%v: sparse index serialized as version %d, want %d", gk, v, indexVersionSparse)
		}
		if got, want := binary.LittleEndian.Uint32(blob[20:]), uint32(len(set.Polygons)); got != want {
			t.Fatalf("%v: header idSpace %d, want %d", gk, got, want)
		}

		loaded, err := ReadIndex(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("%v: reading v4: %v", gk, err)
		}
		if loaded.Status().Live != idx.Status().Live {
			t.Fatalf("%v: loaded %d polygons, want %d", gk, loaded.Status().Live, idx.Status().Live)
		}
		if loaded.Status().Mutable {
			t.Fatalf("%v: deserialized index is mutable", gk)
		}
		checkLookupParity(t, gk.String()+"/read", idx, loaded, set, true)

		// Removed ids must stay dead across the round trip: the remapped
		// geometry store must not resurrect them as exact hits.
		var res Result
		for _, id := range removed {
			p := set.Polygons[id]
			c := p.Outer[0]
			mustLookup(t, loaded, geo.LatLng{Lat: c.Lat, Lng: c.Lng}, Exact, &res)
			for _, got := range res.True {
				if got == id {
					t.Fatalf("%v: removed id %d resurrected by v4 load", gk, id)
				}
			}
		}

		// serialize → load → serialize is a fixed point, byte for byte.
		var buf2 bytes.Buffer
		if _, err := loaded.WriteTo(&buf2); err != nil {
			t.Fatalf("%v: re-serializing v4: %v", gk, err)
		}
		if !bytes.Equal(blob, buf2.Bytes()) {
			t.Fatalf("%v: v4 round trip is not byte-identical (%d vs %d bytes)", gk, len(blob), buf2.Len())
		}

		// The zero-copy path serves the same answers.
		path := filepath.Join(t.TempDir(), "v4.act")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, err := OpenIndex(path)
		if err != nil {
			t.Fatalf("%v: OpenIndex on v4: %v", gk, err)
		}
		checkLookupParity(t, gk.String()+"/mmap", idx, mapped, set, true)
		if err := mapped.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestV4ApproximateOnly round-trips a sparse index without a geometry
// section.
func TestV4ApproximateOnly(t *testing.T) {
	idx, set, _ := buildSparseIndex(t, WithGeometryStore(false))
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatalf("sparse no-geom WriteTo: %v", err)
	}
	loaded, err := ReadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reading sparse no-geom: %v", err)
	}
	if loaded.Status().HasGeometry {
		t.Fatal("approximate-only file loaded with geometry")
	}
	checkLookupParity(t, "nogeom", idx, loaded, set, false)
}

// TestDenseStaysV3: an index without id-space holes keeps writing the v3
// format, so existing v3 consumers and the byte-identity contract with
// older files are unaffected.
func TestDenseStaysV3(t *testing.T) {
	idx, _ := buildTestIndex(t, PlanarGrid)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(buf.Bytes()[4:]); v != indexVersion {
		t.Fatalf("dense index serialized as version %d, want %d", v, indexVersion)
	}

	// An insert-then-compact index is still dense and also stays v3.
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "v3m", NumRegions: 6, Lattice: 64, Seed: 403,
		BoundaryJitter: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	midx, err := New(set.Polygons[:5], WithPrecision(20), WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := midx.Insert(ctx, set.Polygons[5]); err != nil {
		t.Fatal(err)
	}
	if err := midx.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	if _, err := midx.WriteTo(&mbuf); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(mbuf.Bytes()[4:]); v != indexVersion {
		t.Fatalf("insert-only compacted index serialized as version %d, want %d", v, indexVersion)
	}
}

// TestV4CorruptIDColumn: a flipped id-column byte fails the arena checksum
// in the copying reader, and a consistently re-checksummed but
// non-ascending column is rejected by the column validator (the check the
// mmap path relies on, since it skips the arena CRC by design).
func TestV4CorruptIDColumn(t *testing.T) {
	idx, _, _ := buildSparseIndex(t)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	h, err := parseHeader(blob)
	if err != nil {
		t.Fatal(err)
	}

	// Bit flip in the column: the copying reader's checksum catches it.
	flipped := bytes.Clone(blob)
	flipped[h.idsOff()] ^= 0xff
	if _, err := ReadIndex(bytes.NewReader(flipped)); err == nil {
		t.Fatal("ReadIndex accepted a corrupt id column")
	}

	// Forged file: swap two column entries and recompute both checksums so
	// only the ascending-order validator stands between the forgery and an
	// out-of-bounds geometry remap.
	forged := bytes.Clone(blob)
	le := binary.LittleEndian
	a := le.Uint32(forged[h.idsOff():])
	b := le.Uint32(forged[h.idsOff()+4:])
	le.PutUint32(forged[h.idsOff():], b)
	le.PutUint32(forged[h.idsOff()+4:], a)
	crc := crc64.Checksum(forged[h.arenaOff:h.tableEnd()], flatCRCTable)
	crc = crc64.Update(crc, flatCRCTable, forged[h.idsOff():h.idsEnd()])
	le.PutUint64(forged[248:], crc)
	le.PutUint64(forged[flatHeaderCRCBytes:], crc64.Checksum(forged[:flatHeaderCRCBytes], flatCRCTable))
	if _, err := ReadIndex(bytes.NewReader(forged)); err == nil {
		t.Fatal("ReadIndex accepted a non-ascending id column")
	}
	path := filepath.Join(t.TempDir(), "forged.act")
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndex(path); err == nil {
		t.Fatal("OpenIndex accepted a non-ascending id column")
	}
}
