package geostore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/actindex/act/internal/geom"
)

// starPolygon builds a random simple (star-shaped) polygon around a center:
// vertices at increasing angles with random radii never self-intersect.
func starPolygon(rng *rand.Rand, cx, cy, rMax float64, verts int) *geom.Polygon {
	ring := make(geom.Ring, verts)
	for i := range ring {
		ang := (float64(i) + rng.Float64()*0.8) / float64(verts) * 2 * math.Pi
		r := rMax * (0.3 + 0.7*rng.Float64())
		ring[i] = geom.Point{X: cx + r*math.Cos(ang), Y: cy + r*math.Sin(ang)}
	}
	p, err := geom.NewPolygon(ring)
	if err != nil {
		panic(err)
	}
	return p
}

func randomStore(t testing.TB, seed int64, n int) *Store {
	rng := rand.New(rand.NewSource(seed))
	polys := make([]*geom.Polygon, n)
	for i := range polys {
		polys[i] = starPolygon(rng, rng.Float64(), rng.Float64(), 0.05+0.2*rng.Float64(), 4+rng.Intn(12))
	}
	faces := make([]uint8, n)
	for i := range faces {
		faces[i] = uint8(rng.Intn(numFaces))
	}
	return NewSparse(polys, faces)
}

// scanPoint appends to buf, in id order, the ids of every stored polygon
// exactly containing pt: a linear brute force over the whole store.
func scanPoint(s *Store, pt geom.Point, buf []uint32) []uint32 {
	for id, p := range s.polys {
		if p != nil && p.ContainsPointExact(pt) {
			buf = append(buf, uint32(id))
		}
	}
	return buf
}

// TestResolveMatchesScan: resolving the full id universe must equal the
// brute-force scan, and resolving a random candidate list in place (dst =
// candidates[:0], as the exact join does) must equal resolving it into a
// fresh dst.
func TestResolveMatchesScan(t *testing.T) {
	s := randomStore(t, 1, 60)
	all := make([]uint32, s.NumPolygons())
	for i := range all {
		all[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(2))
	var got, want, cands []uint32
	for q := 0; q < 2000; q++ {
		pt := geom.Point{X: rng.Float64()*1.4 - 0.2, Y: rng.Float64()*1.4 - 0.2}
		got = s.Resolve(pt, all, got[:0])
		want = scanPoint(s, pt, want[:0])
		if !slices.Equal(got, want) {
			t.Fatalf("point %v: Resolve=%v scan=%v", pt, got, want)
		}
		// Random ids, repeats and out-of-range ones included.
		cands = cands[:0]
		for range rng.Intn(12) {
			cands = append(cands, uint32(rng.Intn(s.NumPolygons()+4)))
		}
		fresh := s.Resolve(pt, cands, nil)
		if inPlace := s.Resolve(pt, cands, cands[:0]); !slices.Equal(inPlace, fresh) {
			t.Fatalf("point %v: in-place Resolve=%v, fresh dst %v", pt, inPlace, fresh)
		}
	}
}

func TestResolveSkipsOutOfRange(t *testing.T) {
	s := randomStore(t, 3, 4)
	out := s.Resolve(geom.Point{X: 0.5, Y: 0.5}, []uint32{999999}, nil)
	if len(out) != 0 {
		t.Fatalf("out-of-range id resolved: %v", out)
	}
	if s.Contains(999999, geom.Point{X: 0.5, Y: 0.5}) {
		t.Fatal("out-of-range Contains reported true")
	}
	if s.Polygon(999999) != nil {
		t.Fatal("out-of-range Polygon not nil")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	s := randomStore(t, 5, 25)
	b1, err := s.Encode(nil)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	s2, err := Read(b1)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	b2, err := s2.Encode(nil)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("serialize → deserialize → serialize is not byte-identical")
	}
	for id := range uint32(s.NumPolygons()) {
		f1, ok1 := s.Face(id)
		f2, ok2 := s2.Face(id)
		if !ok1 || !ok2 || f1 != f2 {
			t.Fatalf("polygon %d: face %d/%v, reloaded %d/%v", id, f1, ok1, f2, ok2)
		}
	}
	// The reloaded store answers identically.
	rng := rand.New(rand.NewSource(6))
	var a, b []uint32
	for q := 0; q < 500; q++ {
		pt := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		a = scanPoint(s, pt, a[:0])
		b = scanPoint(s2, pt, b[:0])
		if !slices.Equal(a, b) {
			t.Fatalf("point %v: original=%v reloaded=%v", pt, a, b)
		}
	}
}

// TestSerializeBitExact: every vertex comes back with the bits it was
// written with, across sign changes, -0.0, subnormals and the largest
// finite values, where the deltas wrap around uint64.
func TestSerializeBitExact(t *testing.T) {
	odd := geom.Ring{
		{X: math.Copysign(0, -1), Y: 0},
		{X: math.MaxFloat64, Y: -math.MaxFloat64},
		{X: math.SmallestNonzeroFloat64, Y: -math.SmallestNonzeroFloat64},
		{X: -1e300, Y: 1e-300},
		{X: 0.5, Y: 0.5},
	}
	outer := geom.Ring{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
	hole := geom.Ring{{X: 0.25, Y: 0.25}, {X: 0.5, Y: 0.25}, {X: 0.5, Y: 0.5}}
	p1, err := geom.NewPolygon(odd)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := geom.NewPolygon(outer, hole, hole)
	if err != nil {
		t.Fatal(err)
	}
	polys := []*geom.Polygon{p2, p1, nil, p2}
	s := NewSparse(polys, []uint8{5, 0, 0, 3})
	ids := []uint32{3, 1, 0}
	b, err := s.Encode(ids)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		want := s.Polygon(id)
		g := got.Polygon(uint32(i))
		if !sameBits(append([]geom.Ring{want.Outer}, want.Holes...), append([]geom.Ring{g.Outer}, g.Holes...)) {
			t.Fatalf("polygon %d (id %d) changed bits", i, id)
		}
		wf, _ := s.Face(id)
		if gf, ok := got.Face(uint32(i)); !ok || gf != wf {
			t.Fatalf("polygon %d (id %d): face %d/%v, want %d", i, id, gf, ok, wf)
		}
	}
	if _, err := s.Encode(nil); err == nil {
		t.Fatal("encoded a store with a hole")
	}
	if _, err := NewSparse(polys[:2], nil).Encode(nil); err == nil {
		t.Fatal("encoded a store without faces")
	}
}

func sameBits(a, b []geom.Ring) bool {
	if len(a) != len(b) {
		return false
	}
	for r := range a {
		if len(a[r]) != len(b[r]) {
			return false
		}
		for v := range a[r] {
			if math.Float64bits(a[r][v].X) != math.Float64bits(b[r][v].X) ||
				math.Float64bits(a[r][v].Y) != math.Float64bits(b[r][v].Y) {
				return false
			}
		}
	}
	return true
}

// TestReadRefusesRetiredVersions: a section of version 1 or 2, restamped
// from a current one and resealed, is refused as unsupported, as is a
// future version 4.
func TestReadRefusesRetiredVersions(t *testing.T) {
	good, err := randomStore(t, 9, 12).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint32{1, 2, 4} {
		want := fmt.Sprintf("geostore: unsupported version %d", version)
		if _, err := Read(restampSection(good, version)); err == nil || err.Error() != want {
			t.Errorf("version %d: error %v, want %q", version, err, want)
		}
	}
}

// restampSection returns a copy of sec stamped as version, resealed.
func restampSection(sec []byte, version uint32) []byte {
	b := bytes.Clone(sec[:len(sec)-8])
	binary.LittleEndian.PutUint32(b[4:], version)
	return reseal(b)
}

func TestReadRejectsCorruption(t *testing.T) {
	s := randomStore(t, 7, 8)
	good, err := s.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle: the checksum must catch it.
	corrupted := append([]byte(nil), good...)
	corrupted[len(corrupted)/2] ^= 0xFF
	if _, err := Read(corrupted); err == nil {
		t.Fatal("corrupted store accepted")
	}
	// Every truncation must error, never panic.
	for cut := 0; cut < len(good); cut++ {
		if _, err := Read(good[:cut]); err == nil {
			t.Fatalf("truncated store (%d bytes) accepted", cut)
		}
	}
	// So must bytes past the section, checksum recomputed or not.
	long := append(append([]byte(nil), good[:len(good)-8]...), 0, 0, 0, 0)
	if _, err := Read(reseal(long)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := Read([]byte("NOPE")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// reseal appends the checksum of b, as if b were a whole section body.
func reseal(b []byte) []byte {
	return binary.LittleEndian.AppendUint64(b, crc64.Checksum(b, crcTable))
}

// v3Section builds a version 3 section around a hand-written payload.
func v3Section(numPolys int, payload ...byte) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(storeMagic), storeVersion)
	b = binary.LittleEndian.AppendUint64(b, uint64(numPolys))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	return reseal(append(b, payload...))
}

// TestReadRejectsMalformedPayload: sections whose checksum holds but whose
// content breaks a rule of the format are refused.
func TestReadRejectsMalformedPayload(t *testing.T) {
	// A triangle at (1,1), (2,1), (1,2) as raw deltas from zero, and as a
	// polygon: a face, one ring of nv vertices, a zero flag byte (no
	// repeats), then the vertices.
	one := binary.AppendVarint(nil, int64(math.Float64bits(1)))
	two := binary.AppendVarint(nil, int64(math.Float64bits(2)-math.Float64bits(1)))
	back := binary.AppendVarint(nil, int64(math.Float64bits(1)-math.Float64bits(2)))
	zero := []byte{0}
	verts := slices.Concat(one, one, two, zero, back, two)
	tri := func(face byte, nv byte) []byte {
		return append([]byte{face, 1, nv, 0}, verts...)
	}
	if _, err := Read(v3Section(1, tri(2, 3)...)); err != nil {
		t.Fatalf("well-formed triangle refused: %v", err)
	}
	inf := binary.AppendVarint(nil, int64(math.Float64bits(math.Inf(1))-math.Float64bits(1)))
	for name, sec := range map[string][]byte{
		"face 6":              v3Section(1, tri(6, 3)...),
		"two-vertex ring":     v3Section(1, slices.Concat([]byte{0, 1, 2, 0}, one, one, two, zero)...),
		"vertex count lies":   v3Section(1, tri(0, 4)...),
		"non-finite vertex":   v3Section(1, append(tri(0, 3)[:len(tri(0, 3))-len(two)], inf...)...),
		"overlong varint":     v3Section(1, append([]byte{0, 0x81, 0x00, 3, 0}, verts...)...),
		"polygon count lies":  v3Section(2, tri(0, 3)...),
		"trailing payload":    v3Section(1, append(tri(0, 3), 0)...),
		"payload length lies": reseal(append(binary.LittleEndian.AppendUint64(v3Section(1, tri(0, 3)...)[:16], 1), tri(0, 3)...)),
		"huge polygon count":  v3Section(1<<30, tri(0, 3)...),
		"huge ring count":     v3Section(1, append([]byte{0, 0xff, 0xff, 0xff, 0x7f}, tri(0, 3)[2:]...)...),
	} {
		if _, err := Read(sec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Repeats: the triangle, then (1,2), (2,1), (2,2), whose first two
	// vertices repeat table entries 2 and 1 — coded 2 − (2 − 1) = 1 and
	// 1 − (2 − 1) = 0 — and whose last is new, (0, 1) from (2,1).
	first := tri(0, 3)
	second := func(flags byte, verts ...byte) []byte {
		return append([]byte{0, 1, 3, flags}, verts...)
	}
	shared := append([]byte{2, 0, 0}, two...)
	good := v3Section(2, append(first, second(0b011, shared...)...)...)
	st, err := Read(good)
	if err != nil {
		t.Fatalf("well-formed triangle pair refused: %v", err)
	}
	if again, err := st.Encode(nil); err != nil || !bytes.Equal(again, good) {
		t.Fatalf("triangle pair re-encodes to %x (%v), want %x", again, err, good)
	}
	for name, sec := range map[string][]byte{
		"repeat past the table":   v3Section(2, append(first, second(0b011, append([]byte{4, 0, 0}, two...)...)...)...),
		"repeat before the table": v3Section(2, append(first, second(0b011, append([]byte{3, 0, 0}, two...)...)...)...),
		"repeat of nothing":       v3Section(1, append([]byte{0, 1, 3, 0b001, 0}, verts[len(one)+len(one):]...)...),
		"repeat stored anew":      v3Section(2, append(first, second(0b010, append([]byte{0, 0, 0, 0}, two...)...)...)...),
		"nonzero pad bits":        v3Section(1, append([]byte{0, 1, 3, 0b1000}, verts...)...),
		"flag bytes cut short":    v3Section(1, 0, 1, 9, 0),
		"ring without flag bytes": v3Section(1, append([]byte{0, 1, 3}, verts...)...),
	} {
		if _, err := Read(sec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadDoesNotTrustCounts: a short section that claims a billion
// polygons, or rings of a million vertices, is refused before any memory is
// sized from the claim.
func TestReadDoesNotTrustCounts(t *testing.T) {
	payload := append([]byte{0, 1}, binary.AppendUvarint(nil, maxVerts)...)
	lies := [][]byte{
		v3Section(maxPolygons, make([]byte, 64)...),
		v3Section(1, payload...),
	}
	for i, b := range lies {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Read(b); err == nil {
			t.Fatalf("lie %d accepted", i)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("lie %d: %d bytes allocated for a %d-byte section", i, grew, len(b))
		}
	}
}
