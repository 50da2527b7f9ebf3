package geostore

import (
	"bytes"
	"testing"

	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/grid"
)

// projectedStore projects a generated map onto g, as an index build does.
func projectedStore(t testing.TB, set *data.PolygonSet, g grid.Grid) *Store {
	polys := make([]*geom.Polygon, len(set.Polygons))
	faces := make([]uint8, len(set.Polygons))
	for i, p := range set.Polygons {
		face, pp, err := grid.ProjectPolygon(g, p)
		if err != nil {
			t.Fatal(err)
		}
		polys[i], faces[i] = pp, uint8(face)
	}
	return NewSparse(polys, faces)
}

// FuzzGeometrySection feeds arbitrary bytes to Read: it must refuse
// corruption with an error — never panic, never size memory from a count
// the bytes cannot back, never accept a non-finite vertex, a ring under
// three vertices, a face past the sixth, a repeat of a vertex not yet
// stored or a vertex stored anew that should repeat — and what it accepts
// must re-encode byte for byte through Encode. The first seeds are map
// sections restamped as the retired versions 2 and 1, which must be
// refused.
func FuzzGeometrySection(f *testing.F) {
	census, err := data.CensusBlocks(1, 400)
	if err != nil {
		f.Fatal(err)
	}
	hoods, err := data.Neighborhoods(1)
	if err != nil {
		f.Fatal(err)
	}
	outer := geom.Ring{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
	hole := geom.Ring{{X: 0.25, Y: 0.25}, {X: 0.5, Y: 0.25}, {X: 0.5, Y: 0.5}}
	holed, err := geom.NewPolygon(outer, hole, hole)
	if err != nil {
		f.Fatal(err)
	}
	// A square sharing holed's right edge, walked the other way: its
	// repeats cross polygons, coded against the table's first-appearance
	// order.
	right, err := geom.NewPolygon(geom.Ring{{X: 1, Y: 1}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 1}})
	if err != nil {
		f.Fatal(err)
	}
	stores := []*Store{
		projectedStore(f, census, grid.NewCubeFace()),
		projectedStore(f, hoods, grid.NewPlanar()),
		NewSparse([]*geom.Polygon{holed}, []uint8{5}),
	}
	var sections [][]byte
	for _, s := range append(stores, NewSparse([]*geom.Polygon{holed, right, holed}, []uint8{5, 0, 3})) {
		v3, err := s.Encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		sections = append(sections, v3)
	}
	for _, sec := range sections[:len(stores)] {
		f.Add(restampSection(sec, 2))
		f.Add(restampSection(sec, 1))
	}
	for _, sec := range sections {
		f.Add(sec)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Read(b)
		if err != nil {
			return
		}
		for id := range uint32(s.NumPolygons()) {
			p := s.Polygon(id)
			if p == nil || p.Validate() != nil {
				t.Fatalf("polygon %d accepted invalid: %v", id, p)
			}
			if face, ok := s.Face(id); ok && face >= numFaces {
				t.Fatalf("polygon %d accepted with face %d", id, face)
			}
		}
		again, err := s.Encode(nil)
		if err != nil {
			t.Fatalf("accepted section fails to encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("section does not re-encode to itself (%d vs %d bytes)", len(again), len(b))
		}
	})
}

// BenchmarkGeometrySection encodes and decodes the geometry section of the
// map the repository benchmark's join_uniform workload builds: 3 920 census
// blocks on the planar grid.
func BenchmarkGeometrySection(b *testing.B) {
	set, err := data.CensusBlocks(1, 3920)
	if err != nil {
		b.Fatal(err)
	}
	s := projectedStore(b, set, grid.NewPlanar())
	sec, err := s.Encode(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(sec)))
		for range b.N {
			if _, err := s.Encode(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(sec)))
		for range b.N {
			if _, err := Read(sec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
