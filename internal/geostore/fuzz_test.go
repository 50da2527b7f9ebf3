package geostore

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"math"
	"testing"

	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/grid"
)

// encodeV1 lays polys out in version 1 of the section — uint32 counts, raw
// float64 vertices, no faces — which Read still decodes but nothing writes.
func encodeV1(polys []*geom.Polygon) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32([]byte(storeMagic), 1)
	b = le.AppendUint64(b, uint64(len(polys)))
	for _, p := range polys {
		b = le.AppendUint32(b, uint32(1+len(p.Holes)))
		for _, ring := range append([]geom.Ring{p.Outer}, p.Holes...) {
			b = le.AppendUint32(b, uint32(len(ring)))
			for _, v := range ring {
				b = le.AppendUint64(b, math.Float64bits(v.X))
				b = le.AppendUint64(b, math.Float64bits(v.Y))
			}
		}
	}
	return le.AppendUint64(b, crc64.Checksum(b, crcTable))
}

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
// three vertices or a face past the sixth — and what it accepts must
// re-encode byte for byte: a version 2 section to itself, a version 1
// section to itself in the version 1 layout.
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
	for _, s := range []*Store{
		projectedStore(f, census, grid.NewCubeFace()),
		projectedStore(f, hoods, grid.NewPlanar()),
		NewSparse([]*geom.Polygon{holed}, []uint8{5}),
	} {
		v2, err := s.Encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(v2)
		f.Add(encodeV1(s.polys))
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
		if binary.LittleEndian.Uint32(b[4:]) == 1 {
			if _, ok := s.Face(0); ok {
				t.Fatal("version 1 section reports faces")
			}
			if !bytes.Equal(encodeV1(s.polys), b) {
				t.Fatal("version 1 section does not re-encode to itself")
			}
			return
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
