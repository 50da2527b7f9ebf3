package act

// Tests for the geometry section of an index file: it fills exactly
// [geomOff, fileSize) and records every polygon's grid face.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/geostore"
	"github.com/actindex/act/internal/grid"
)

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

func mustCensus40(t *testing.T) *data.PolygonSet {
	t.Helper()
	set, err := data.CensusBlocks(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestGeometryV1Compat: geometry sections of versions 1 and 2 are no longer
// read. A v13 file whose section is restamped to either and resealed — the
// sections only index versions 7 to 12 carried — is refused by every loader,
// which names the section version and leaves the file untouched.
func TestGeometryV1Compat(t *testing.T) {
	seed := fuzzSeedIndexes(t)[0]
	for v := uint32(1); v <= 2; v++ {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			checkRefusedEverywhere(t, geometryFile(t, v, seed), fmt.Sprintf("geostore: unsupported version %d", v))
		})
	}
}

// TestGeometryFacesRoundTrip: on the cube-face grid, polygons on several
// faces keep their faces through a build, an insert, a removal, the
// compaction that folds them (a v14 file, whose section is remapped to
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
// and through its heap source — even with the header checksum recomputed.
func TestGeometryTrailingBytesRefused(t *testing.T) {
	ix, err := New(mustCensus40(t).Polygons, WithPrecision(1000), WithGrid(CubeFaceGrid))
	if err != nil {
		t.Fatal(err)
	}
	var good bytes.Buffer
	if _, err := ix.WriteTo(&good); err != nil {
		t.Fatal(err)
	}
	forged := append(good.Bytes(), make([]byte, 24)...)
	binary.LittleEndian.PutUint64(forged[96:], uint64(len(forged)))
	binary.LittleEndian.PutUint64(forged[flatHeaderCRCBytes:], crc64.Checksum(forged[:flatHeaderCRCBytes], flatCRCTable))
	if _, err := ReadIndex(bytes.NewReader(forged)); err == nil {
		t.Error("ReadIndex accepted 24 trailing bytes")
	}
	path := filepath.Join(t.TempDir(), "forged.act")
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if ix, err := OpenIndex(path); err == nil {
		ix.Close()
		t.Error("OpenIndex accepted 24 trailing bytes")
	}
	if ix, err := openHeap(path); err == nil {
		ix.Close()
		t.Error("OpenIndex's heap source accepted 24 trailing bytes")
	}
}
