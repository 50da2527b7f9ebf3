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

// encodeV2 lays s out in version 2 of the section — version 3 without
// repeat flags, every vertex stored anew — which Read still decodes but
// nothing writes.
func encodeV2(s *Store) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32([]byte(storeMagic), 2)
	b = le.AppendUint64(b, uint64(len(s.polys)))
	b = le.AppendUint64(b, 0) // payloadLen, set below
	var px, py uint64
	for id, p := range s.polys {
		b = append(b, s.faces[id])
		b = binary.AppendUvarint(b, uint64(1+len(p.Holes)))
		for _, ring := range append([]geom.Ring{p.Outer}, p.Holes...) {
			b = binary.AppendUvarint(b, uint64(len(ring)))
			for _, v := range ring {
				x, y := math.Float64bits(v.X), math.Float64bits(v.Y)
				b = binary.AppendVarint(b, int64(x-px))
				b = binary.AppendVarint(b, int64(y-py))
				px, py = x, y
			}
		}
	}
	le.PutUint64(b[16:], uint64(len(b)-headerLen))
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
// three vertices, a face past the sixth, a repeat of a vertex not yet
// stored or a vertex stored anew that should repeat — and what it accepts
// must re-encode byte for byte, in the layout of its own version: version 3
// through Encode, versions 2 and 1 through encodeV2 and encodeV1.
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
	for _, s := range stores {
		f.Add(encodeV2(s))
		f.Add(encodeV1(s.polys))
	}
	for _, s := range append(stores, NewSparse([]*geom.Polygon{holed, right, holed}, []uint8{5, 0, 3})) {
		v3, err := s.Encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(v3)
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
		version := binary.LittleEndian.Uint32(b[4:])
		var again []byte
		switch version {
		case 1:
			if _, ok := s.Face(0); ok {
				t.Fatal("version 1 section reports faces")
			}
			again = encodeV1(s.polys)
		case 2:
			again = encodeV2(s)
		default:
			if again, err = s.Encode(nil); err != nil {
				t.Fatalf("accepted section fails to encode: %v", err)
			}
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("version %d section does not re-encode to itself (%d vs %d bytes)", version, len(again), len(b))
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
