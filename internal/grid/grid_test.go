package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/geom"
)

var grids = []Grid{NewPlanar(), NewCubeFace()}

func TestProjectUnprojectRoundTrip(t *testing.T) {
	points := []geo.LatLng{
		{Lat: 0, Lng: 0},
		{Lat: 40.7128, Lng: -74.0060}, // NYC
		{Lat: -33.86, Lng: 151.21},    // Sydney
		{Lat: 78.2, Lng: 15.6},        // Svalbard
		{Lat: -89.5, Lng: 0},
		{Lat: 0.0001, Lng: 179.9},
	}
	for _, g := range grids {
		for _, ll := range points {
			face, st := g.Project(ll)
			if face < 0 || face >= g.NumFaces() {
				t.Fatalf("%s: face %d out of range for %v", g.Name(), face, ll)
			}
			if st.X < 0 || st.X > 1 || st.Y < 0 || st.Y > 1 {
				t.Fatalf("%s: st %v out of unit square for %v", g.Name(), st, ll)
			}
			back := g.Unproject(face, st)
			if d := geo.DistanceMeters(ll, back); d > 0.001 {
				t.Errorf("%s: roundtrip %v -> %v moved %.6f m", g.Name(), ll, back, d)
			}
		}
	}
}

func TestProjectUnprojectQuick(t *testing.T) {
	for _, g := range grids {
		g := g
		f := func(latSeed, lngSeed float64) bool {
			ll := geo.LatLng{
				Lat: math.Mod(math.Abs(latSeed), 178) - 89,
				Lng: math.Mod(math.Abs(lngSeed), 358) - 179,
			}
			face, st := g.Project(ll)
			back := g.Unproject(face, st)
			return geo.DistanceMeters(ll, back) < 0.001
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", g.Name(), err)
		}
	}
}

func TestLeafCellContainsPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range grids {
		for n := 0; n < 500; n++ {
			ll := geo.LatLng{Lat: rng.Float64()*170 - 85, Lng: rng.Float64()*359 - 179.5}
			leaf := LeafCell(g, ll)
			if !leaf.IsValid() || !leaf.IsLeaf() {
				t.Fatalf("%s: LeafCell(%v) = %v invalid", g.Name(), ll, leaf)
			}
			face, st := g.Project(ll)
			if leaf.Face() != face {
				t.Fatalf("%s: face mismatch", g.Name())
			}
			r := CellRect(leaf)
			if !r.Contains(st) {
				t.Fatalf("%s: cell rect %v does not contain projected point %v", g.Name(), r, st)
			}
			// Ancestors contain the leaf's rect.
			for _, lvl := range []int{0, 5, 10, 20, 29} {
				a := leaf.Parent(lvl)
				if !CellRect(a).ContainsRect(r) {
					t.Fatalf("%s: ancestor rect does not contain leaf rect at level %d", g.Name(), lvl)
				}
			}
		}
	}
}

func TestPointToCellLevel(t *testing.T) {
	g := NewPlanar()
	ll := geo.LatLng{Lat: 40.7, Lng: -74}
	for lvl := 0; lvl <= cellid.MaxLevel; lvl++ {
		c := PointToCell(g, ll, lvl)
		if c.Level() != lvl {
			t.Fatalf("PointToCell level = %d, want %d", c.Level(), lvl)
		}
		_, st := g.Project(ll)
		if !CellRect(c).Contains(st) {
			t.Fatalf("cell at level %d does not contain point", lvl)
		}
	}
}

func TestCellRectChildrenPartitionParent(t *testing.T) {
	id := cellid.FromFace(0).Child(1).Child(2).Child(0)
	pr := CellRect(id)
	var area float64
	for _, c := range id.Children() {
		cr := CellRect(c)
		if !pr.ContainsRect(cr) {
			t.Fatalf("child rect %v outside parent %v", cr, pr)
		}
		area += cr.Area()
	}
	if math.Abs(area-pr.Area()) > pr.Area()*1e-12 {
		t.Errorf("children areas %v != parent area %v", area, pr.Area())
	}
}

func TestCellDiagonalShrinksByHalf(t *testing.T) {
	for _, g := range grids {
		ll := geo.LatLng{Lat: 40.7128, Lng: -74.0060}
		// Start at level 4: at planetary scale the great-circle diagonals
		// of nested rects are not strictly monotone (a quarter
		// circumference caps them).
		prev := math.Inf(1)
		for lvl := 4; lvl <= 24; lvl++ {
			c := PointToCell(g, ll, lvl)
			d := CellDiagonalMeters(g, c)
			if d <= 0 {
				t.Fatalf("%s: non-positive diagonal at level %d", g.Name(), lvl)
			}
			if d >= prev {
				t.Fatalf("%s: diagonal did not shrink at level %d (%v >= %v)", g.Name(), lvl, d, prev)
			}
			prev = d
		}
		// At level 24 a cell should be around a meter (paper: <1 m at
		// level 24); accept a small range since grids differ.
		if prev > 4 || prev < 0.1 {
			t.Errorf("%s: level-24 diagonal %.3f m outside plausible range", g.Name(), prev)
		}
	}
}

func TestCellCenterInsideCell(t *testing.T) {
	for _, g := range grids {
		ll := geo.LatLng{Lat: 40.75, Lng: -73.98}
		for lvl := 2; lvl <= 28; lvl += 2 {
			c := PointToCell(g, ll, lvl)
			center := CellCenter(g, c)
			if got := PointToCell(g, center, lvl); got != c {
				t.Fatalf("%s: center of %v maps to %v at level %d", g.Name(), c, got, lvl)
			}
		}
	}
}

func TestProjectPolygon(t *testing.T) {
	nyc := &geo.Polygon{
		Outer: []geo.LatLng{
			{Lat: 40.70, Lng: -74.02},
			{Lat: 40.70, Lng: -73.95},
			{Lat: 40.80, Lng: -73.95},
			{Lat: 40.80, Lng: -74.02},
		},
		Holes: [][]geo.LatLng{{
			{Lat: 40.74, Lng: -73.99},
			{Lat: 40.74, Lng: -73.97},
			{Lat: 40.76, Lng: -73.97},
			{Lat: 40.76, Lng: -73.99},
		}},
	}
	for _, g := range grids {
		face, poly, err := ProjectPolygon(g, nyc)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if len(poly.Outer) != 4 || len(poly.Holes) != 1 {
			t.Fatalf("%s: wrong ring shapes", g.Name())
		}
		// A point inside the polygon (outside the hole) projects inside.
		in := geo.LatLng{Lat: 40.71, Lng: -74.0}
		f2, st := g.Project(in)
		if f2 != face {
			t.Fatalf("%s: test point on different face", g.Name())
		}
		if !poly.ContainsPoint(st) {
			t.Errorf("%s: projected polygon should contain projected inner point", g.Name())
		}
		// A point in the hole projects outside.
		_, st = g.Project(geo.LatLng{Lat: 40.75, Lng: -73.98})
		if poly.ContainsPoint(st) {
			t.Errorf("%s: projected polygon should exclude hole point", g.Name())
		}
	}
}

func TestProjectPolygonMultiFace(t *testing.T) {
	// A polygon spanning a quarter of the globe crosses cube faces.
	big := &geo.Polygon{Outer: []geo.LatLng{
		{Lat: 10, Lng: 0},
		{Lat: 10, Lng: 120},
		{Lat: 30, Lng: 60},
	}}
	if _, _, err := ProjectPolygon(NewCubeFace(), big); err == nil {
		t.Error("cube-face grid should reject multi-face polygon")
	}
	if _, _, err := ProjectPolygon(NewPlanar(), big); err != nil {
		t.Errorf("planar grid should accept any polygon: %v", err)
	}
}

func TestProjectPolygonInvalid(t *testing.T) {
	bad := &geo.Polygon{Outer: []geo.LatLng{{Lat: 0, Lng: 0}, {Lat: 1, Lng: 1}}}
	for _, g := range grids {
		if _, _, err := ProjectPolygon(g, bad); err == nil {
			t.Errorf("%s: should reject 2-vertex polygon", g.Name())
		}
	}
	outOfRange := &geo.Polygon{Outer: []geo.LatLng{
		{Lat: 0, Lng: 0}, {Lat: 95, Lng: 1}, {Lat: 1, Lng: 1},
	}}
	for _, g := range grids {
		if _, _, err := ProjectPolygon(g, outOfRange); err == nil {
			t.Errorf("%s: should reject out-of-range latitude", g.Name())
		}
	}
}

func TestCubeFaceSTUVInverse(t *testing.T) {
	f := func(seed float64) bool {
		s := math.Mod(math.Abs(seed), 1)
		u := stToUV(s)
		if u < -1 || u > 1 {
			return false
		}
		return math.Abs(uvToST(u)-s) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestCubeFaceCoversAllFaces(t *testing.T) {
	seen := make(map[int]bool)
	g := NewCubeFace()
	rng := rand.New(rand.NewSource(9))
	for n := 0; n < 2000; n++ {
		ll := geo.LatLng{Lat: rng.Float64()*180 - 90, Lng: rng.Float64()*360 - 180}
		face, _ := g.Project(ll)
		seen[face] = true
	}
	if len(seen) != 6 {
		t.Errorf("random sphere points hit %d faces, want 6", len(seen))
	}
}

func TestPlanarCellIsLatLngRect(t *testing.T) {
	g := NewPlanar()
	c := PointToCell(g, geo.LatLng{Lat: 40.7, Lng: -74}, 12)
	r := CellRect(c)
	sw := g.Unproject(0, r.Min)
	ne := g.Unproject(0, r.Max)
	// Width/height in degrees should be exactly the level-12 extent.
	wantLng := 360.0 / float64(uint64(1)<<12)
	wantLat := 180.0 / float64(uint64(1)<<12)
	if math.Abs((ne.Lng-sw.Lng)-wantLng) > 1e-9 {
		t.Errorf("cell lng extent = %v, want %v", ne.Lng-sw.Lng, wantLng)
	}
	if math.Abs((ne.Lat-sw.Lat)-wantLat) > 1e-9 {
		t.Errorf("cell lat extent = %v, want %v", ne.Lat-sw.Lat, wantLat)
	}
}

var sinkCell cellid.ID

func BenchmarkLeafCellPlanar(b *testing.B) {
	g := NewPlanar()
	ll := geo.LatLng{Lat: 40.7128, Lng: -74.0060}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkCell = LeafCell(g, ll)
	}
}

func BenchmarkLeafCellCubeFace(b *testing.B) {
	g := NewCubeFace()
	ll := geo.LatLng{Lat: 40.7128, Lng: -74.0060}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkCell = LeafCell(g, ll)
	}
}

var sinkRect geom.Rect

func BenchmarkCellRect(b *testing.B) {
	c := PointToCell(NewPlanar(), geo.LatLng{Lat: 40.7, Lng: -74}, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkRect = CellRect(c)
	}
}

func TestLeafCellsMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	pts := make([]geo.LatLng, 500)
	for i := range pts {
		pts[i] = geo.LatLng{Lat: rng.Float64()*170 - 85, Lng: rng.Float64()*359 - 179.5}
	}
	for _, g := range grids {
		batch := LeafCells(g, pts, nil)
		if len(batch) != len(pts) {
			t.Fatalf("%s: %d leaves", g.Name(), len(batch))
		}
		for i, ll := range pts {
			if single := LeafCell(g, ll); single != batch[i] {
				t.Fatalf("%s: batch leaf %v != single %v at %v", g.Name(), batch[i], single, ll)
			}
		}
		// Appending into a reused buffer must not reallocate content.
		buf := make([]cellid.ID, 0, len(pts))
		buf = LeafCells(g, pts[:10], buf)
		if len(buf) != 10 {
			t.Fatalf("%s: reuse buffer got %d", g.Name(), len(buf))
		}
	}
}

func TestProjectAllMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	pts := make([]geo.LatLng, 300)
	for i := range pts {
		pts[i] = geo.LatLng{Lat: rng.Float64()*170 - 85, Lng: rng.Float64()*359 - 179.5}
	}
	for _, g := range grids {
		batch := ProjectAll(g, pts, nil)
		for i, ll := range pts {
			_, st := g.Project(ll)
			if st != batch[i] {
				t.Fatalf("%s: batch projection differs at %v", g.Name(), ll)
			}
		}
	}
}

// TestCellDiagonalBand holds the band against the cells it speaks for: every
// cell of the level that touches the rectangle has its diagonal inside
// [lo, hi], and the cells with the largest diagonal touch peak.
func TestCellDiagonalBand(t *testing.T) {
	g := NewPlanar()
	rng := rand.New(rand.NewSource(1404))
	for trial := 0; trial < 300; trial++ {
		level := 1 + rng.Intn(24)
		size := 1.0 / float64(uint64(1)<<uint(level))
		// A few cells wide and tall, anywhere — on the equator one time in four.
		y := rng.Float64()
		if trial%4 == 0 {
			y = 0.5 - 2*size*rng.Float64()
		}
		r := geom.Rect{Min: geom.Point{X: rng.Float64(), Y: y}}
		r.Max = geom.Point{X: math.Min(r.Min.X+6*size*rng.Float64(), 1), Y: math.Min(y+6*size*rng.Float64(), 1)}
		lo, hi, peak := CellDiagonalBand(g, 0, r, level)
		if !r.ContainsRect(peak) {
			t.Fatalf("level %d %v: peak %v outside the rectangle", level, r, peak)
		}

		// Enumerate the cells touching r, a margin of one included.
		n := 1 << uint(level)
		best, bestTouches := 0.0, false
		for i := max(int(r.Min.X/size)-1, 0); i <= min(int(r.Max.X/size)+1, n-1); i++ {
			for j := max(int(r.Min.Y/size)-1, 0); j <= min(int(r.Max.Y/size)+1, n-1); j++ {
				shift := uint(cellid.MaxLevel - level)
				cell := cellid.FromFaceIJ(0, i<<shift, j<<shift).Parent(level)
				if !CellRect(cell).Intersects(r) {
					continue
				}
				d := CellDiagonalMeters(g, cell)
				if d < lo || d > hi {
					t.Fatalf("level %d %v: cell %v has diagonal %v outside [%v, %v]", level, r, cell, d, lo, hi)
				}
				if touches := CellRect(cell).Intersects(peak); d > best || d == best && touches {
					best, bestTouches = d, touches
				}
			}
		}
		if !bestTouches {
			t.Fatalf("level %d %v: the largest diagonal %v lies outside peak %v", level, r, best, peak)
		}
	}

	// A grid without a band measures every cell.
	r := geom.Rect{Min: geom.Point{X: 0.2, Y: 0.2}, Max: geom.Point{X: 0.3, Y: 0.3}}
	if lo, hi, peak := CellDiagonalBand(NewCubeFace(), 2, r, 12); lo != 0 || !math.IsInf(hi, 1) || peak != r {
		t.Errorf("cube-face band = [%v, %v] %v, want [0, +Inf] and the whole rectangle", lo, hi, peak)
	}
}
