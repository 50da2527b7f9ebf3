package act

// Tests for the geometry section of an index file: it fills exactly
// [geomOff, fileSize), records every polygon's grid face, and a file whose
// section is an older version — 1 (raw float64 vertices, no faces) or 2
// (every vertex delta-coded, none shared) — still loads through every path,
// decoding to the coordinates a fresh build holds.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/geostore"
	"github.com/actindex/act/internal/grid"
)

// compatFiles are indexes of CensusBlocks(1, 40) on the cube-face grid at
// ε = 1000 m, written as index version 7 by the last release that wrote
// each older geometry section version.
var compatFiles = []struct {
	path    string
	version uint32
}{
	{"testdata/census40-geometry-v1.act", 1},
	{"testdata/census40-geometry-v2.act", 2},
}

// geometryVersion is the geometry section version WriteTo writes.
const geometryVersion = 3

// buildCompatTwin builds the index the compatFiles were written from.
func buildCompatTwin(t *testing.T) *Index {
	t.Helper()
	ix, err := New(mustCensus40(t).Polygons, WithPrecision(1000), WithGrid(CubeFaceGrid))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// sectionVersion returns the version of a file's geometry section.
func sectionVersion(t *testing.T, file []byte) uint32 {
	t.Helper()
	h, err := decodeFlatHeader((*[flatHeaderSize]byte)(file))
	if err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint32(file[h.geomOff+4:])
}

// sameGeometry fails unless a and b hold bit-identical vertices and equal
// faces under every id.
func sameGeometry(t *testing.T, tag string, a, b *geostore.Store) {
	t.Helper()
	if a.NumPolygons() != b.NumPolygons() {
		t.Fatalf("%s: %d polygons, want %d", tag, b.NumPolygons(), a.NumPolygons())
	}
	for id := range uint32(a.NumPolygons()) {
		pa, pb := a.Polygon(id), b.Polygon(id)
		if (pa == nil) != (pb == nil) {
			t.Fatalf("%s: polygon %d present in only one store", tag, id)
		}
		if pa == nil {
			continue
		}
		faceA, oka := a.Face(id)
		faceB, okb := b.Face(id)
		if !oka || !okb || faceA != faceB {
			t.Fatalf("%s: polygon %d: face %d/%v, want %d/%v", tag, id, faceB, okb, faceA, oka)
		}
		ra := append([]geom.Ring{pa.Outer}, pa.Holes...)
		rb := append([]geom.Ring{pb.Outer}, pb.Holes...)
		if len(ra) != len(rb) {
			t.Fatalf("%s: polygon %d: %d rings, want %d", tag, id, len(rb), len(ra))
		}
		for r := range ra {
			if len(ra[r]) != len(rb[r]) {
				t.Fatalf("%s: polygon %d ring %d: %d vertices, want %d", tag, id, r, len(rb[r]), len(ra[r]))
			}
			for v := range ra[r] {
				if math.Float64bits(ra[r][v].X) != math.Float64bits(rb[r][v].X) ||
					math.Float64bits(ra[r][v].Y) != math.Float64bits(rb[r][v].Y) {
					t.Fatalf("%s: polygon %d ring %d vertex %d: %v, want %v", tag, id, r, v, rb[r][v], ra[r][v])
				}
			}
		}
	}
}

// TestGeometryV1Compat loads each file with an older geometry section
// through ReadIndex, OpenIndex, OpenFollower and, as the checkpoint of a WAL
// directory, Recover: each decodes the coordinates a fresh build holds,
// keeps the faces or (version 1) puts every polygon on the one face with a
// root, and writes the file back as the build does, with the current
// section version.
func TestGeometryV1Compat(t *testing.T) {
	for _, cf := range compatFiles {
		t.Run(fmt.Sprintf("v%d", cf.version), func(t *testing.T) {
			testGeometryCompat(t, cf.path, cf.version)
		})
	}
}

func testGeometryCompat(t *testing.T, path string, version uint32) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := sectionVersion(t, raw); v != version {
		t.Fatalf("%s carries geometry version %d, want %d", path, v, version)
	}
	built := buildCompatTwin(t)
	want := built.live.Load().store

	read, err := ReadIndex(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	mapped, err := OpenIndex(path)
	if err != nil {
		t.Fatalf("OpenIndex: %v", err)
	}
	defer mapped.Close()
	follower, err := OpenFollower(path)
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer follower.Close()
	var cur bytes.Buffer
	if _, err := built.WriteTo(&cur); err != nil {
		t.Fatal(err)
	}
	if v := sectionVersion(t, cur.Bytes()); v != geometryVersion {
		t.Fatalf("the build writes geometry version %d, want %d", v, geometryVersion)
	}
	fromCur, err := ReadIndex(bytes.NewReader(cur.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for loader, ix := range map[string]*Index{"ReadIndex": read, "OpenIndex": mapped, "OpenFollower": follower, "the build's file": fromCur} {
		sameGeometry(t, loader, want, ix.live.Load().store)
		var again bytes.Buffer
		if _, err := ix.WriteTo(&again); err != nil {
			t.Fatalf("%s: WriteTo: %v", loader, err)
		}
		// Only the geometry section changes version: the file is the one
		// the build writes.
		if !bytes.Equal(again.Bytes(), cur.Bytes()) {
			t.Errorf("%s: re-serialized file differs from the build's (%d vs %d bytes)", loader, again.Len(), cur.Len())
		}
	}
	checkLookupParity(t, fmt.Sprintf("v%d file", version), built, read, mustCensus40(t), true)

	dir := t.TempDir()
	snap := filepath.Join(dir, "index.act")
	if err := os.WriteFile(snap, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(snap, filepath.Join(dir, "delta.wal"), WithDeltaThreshold(-1))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Close()
	ctx := context.Background()
	b := mustCensus40(t).Bound
	for i := range 3 {
		lat := b.MinLat + (b.MaxLat-b.MinLat)*float64(i+1)/4
		lng := b.MinLng + (b.MaxLng-b.MinLng)*float64(i+1)/4
		p := &Polygon{Outer: []LatLng{{Lat: lat, Lng: lng}, {Lat: lat, Lng: lng + 0.002}, {Lat: lat + 0.002, Lng: lng + 0.002}}}
		id, err := rec.Insert(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := built.Insert(ctx, p); err != nil {
			t.Fatal(err)
		}
		var res Result
		if !mustLookup(t, rec, LatLng{Lat: lat + 0.0005, Lng: lng + 0.0015}, Exact, &res) || !slices.Contains(res.True, id) {
			t.Fatalf("inserted polygon %d not found: %+v", id, res)
		}
	}
	if err := rec.Checkpoint(ctx); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := built.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	sameGeometry(t, "recovered", built.live.Load().store, rec.live.Load().store)
	written, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if v := sectionVersion(t, written); v != geometryVersion {
		t.Fatalf("checkpoint carries geometry version %d, want %d", v, geometryVersion)
	}
	var compacted bytes.Buffer
	if _, err := built.WriteTo(&compacted); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, compacted.Bytes()) {
		t.Errorf("checkpoint differs from the compacted build's file (%d vs %d bytes)", len(written), compacted.Len())
	}
}

func mustCensus40(t *testing.T) *data.PolygonSet {
	t.Helper()
	set, err := data.CensusBlocks(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestGeometryFacesRoundTrip: on the cube-face grid, polygons on several
// faces keep their faces through a build, an insert, a removal, the
// compaction that folds them (a v8 file, whose section is remapped to
// sparse ids at load) and both loaders.
func TestGeometryFacesRoundTrip(t *testing.T) {
	tri := func(lat, lng float64) *Polygon {
		return &Polygon{Outer: []LatLng{{Lat: lat, Lng: lng}, {Lat: lat, Lng: lng + 1}, {Lat: lat + 1, Lng: lng}}}
	}
	polys := []*Polygon{tri(10, 10), tri(10, 100), tri(70, 40), tri(-20, -100), tri(40.7, -74)}
	ix, err := New(polys, WithPrecision(20000), WithGrid(CubeFaceGrid), WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	inserted := tri(-70, 0)
	if _, err := ix.Insert(ctx, inserted); err != nil {
		t.Fatal(err)
	}
	if err := ix.Remove(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := ix.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	polys = append(polys, inserted)
	faces := map[int]bool{}
	st := ix.live.Load().store
	for id, p := range polys {
		want, _, err := grid.ProjectPolygon(grid.NewCubeFace(), p)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := st.Face(uint32(id))
		if id == 1 {
			if ok {
				t.Fatalf("removed polygon 1 reports face %d", got)
			}
			continue
		}
		if !ok || got != want {
			t.Fatalf("polygon %d: face %d/%v, want %d", id, got, ok, want)
		}
		faces[want] = true
	}
	if len(faces) < 2 {
		t.Fatalf("polygons cover faces %v; the test needs at least two", faces)
	}
	var file bytes.Buffer
	if _, err := ix.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(file.Bytes()[4:]); v != indexVersionSparse {
		t.Fatalf("written as version %d, want %d", v, indexVersionSparse)
	}
	read, err := ReadIndex(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	mapped := openMapped(t, writeIndexFile(t, ix))
	defer mapped.Close()
	sameGeometry(t, "ReadIndex", st, read.live.Load().store)
	sameGeometry(t, "OpenIndex", st, mapped.live.Load().store)
}

// TestGeometryTrailingBytesRefused: bytes between the end of the geometry
// section and the header's fileSize are not part of any file WriteTo
// produces, so every loader refuses them — ReadIndex, and OpenIndex mapped
// and through its heap source — even with the header checksum recomputed,
// for the current section version and for every older one.
func TestGeometryTrailingBytesRefused(t *testing.T) {
	var cur bytes.Buffer
	if _, err := buildCompatTwin(t).WriteTo(&cur); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{fmt.Sprintf("v%d section", geometryVersion): cur.Bytes()}
	for _, cf := range compatFiles {
		raw, err := os.ReadFile(cf.path)
		if err != nil {
			t.Fatal(err)
		}
		files[fmt.Sprintf("v%d section", cf.version)] = raw
	}
	for name, good := range files {
		forged := append(append([]byte(nil), good...), make([]byte, 24)...)
		binary.LittleEndian.PutUint64(forged[96:], uint64(len(forged)))
		binary.LittleEndian.PutUint64(forged[flatHeaderCRCBytes:], crc64.Checksum(forged[:flatHeaderCRCBytes], flatCRCTable))
		if _, err := ReadIndex(bytes.NewReader(forged)); err == nil {
			t.Errorf("%s: ReadIndex accepted 24 trailing bytes", name)
		}
		path := filepath.Join(t.TempDir(), "forged.act")
		if err := os.WriteFile(path, forged, 0o644); err != nil {
			t.Fatal(err)
		}
		if ix, err := OpenIndex(path); err == nil {
			ix.Close()
			t.Errorf("%s: OpenIndex accepted 24 trailing bytes", name)
		}
		if ix, err := openHeap(path); err == nil {
			ix.Close()
			t.Errorf("%s: OpenIndex's heap source accepted 24 trailing bytes", name)
		}
	}
}
