package cover

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/grid"
)

// assertCoveringsEqual compares two coverings cell by cell.
func assertCoveringsEqual(t *testing.T, label string, a, b *Covering) {
	t.Helper()
	if len(a.Boundary) != len(b.Boundary) || len(a.Interior) != len(b.Interior) {
		t.Fatalf("%s: shape differs: boundary %d vs %d, interior %d vs %d",
			label, len(a.Boundary), len(b.Boundary), len(a.Interior), len(b.Interior))
	}
	for i := range a.Boundary {
		if a.Boundary[i] != b.Boundary[i] {
			t.Fatalf("%s: boundary[%d] %v vs %v", label, i, a.Boundary[i], b.Boundary[i])
		}
	}
	for i := range a.Interior {
		if a.Interior[i] != b.Interior[i] {
			t.Fatalf("%s: interior[%d] %v vs %v", label, i, a.Interior[i], b.Interior[i])
		}
	}
	if math.Abs(a.AchievedPrecisionMeters-b.AchievedPrecisionMeters) > 1e-9 {
		t.Fatalf("%s: achieved precision %v vs %v", label, a.AchievedPrecisionMeters, b.AchievedPrecisionMeters)
	}
}

// TestFastMatchesExhaustive asserts bit-identical output of the fast and
// reference covering paths across random star polygons with holes, on both
// grids and several precisions.
func TestFastMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 25; trial++ {
		p := randomGeoPolygon(rng)
		for _, g := range testGrids {
			for _, eps := range []float64{200, 40} {
				c, err := NewCoverer(g, eps)
				if err != nil {
					t.Fatal(err)
				}
				face, poly, err := grid.ProjectPolygon(g, p)
				if err != nil {
					t.Fatal(err)
				}
				start := c.startCell(face, poly)
				fast, err := c.coverFast(start, poly, nil)
				if err != nil {
					t.Fatalf("trial %d %s/%v: fast: %v", trial, g.Name(), eps, err)
				}
				slow, err := c.coverExhaustive(start, poly)
				if err != nil {
					t.Fatalf("trial %d %s/%v: slow: %v", trial, g.Name(), eps, err)
				}
				assertCoveringsEqual(t, g.Name(), fast, slow)
			}
		}
	}
}

// TestFastMatchesExhaustiveOnGenerated runs the equivalence check on the
// lattice-generated polygons the benchmarks use (staircase boundaries,
// pinch points, punched holes).
func TestFastMatchesExhaustiveOnGenerated(t *testing.T) {
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "fastgen", NumRegions: 12, Lattice: 64, Seed: 304,
		BoundaryJitter: 0.8, HoleFraction: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := grid.NewPlanar()
	c, err := NewCoverer(g, 25)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range set.Polygons {
		face, poly, err := grid.ProjectPolygon(g, p)
		if err != nil {
			t.Fatal(err)
		}
		start := c.startCell(face, poly)
		fast, err := c.coverFast(start, poly, nil)
		if err != nil {
			t.Fatalf("polygon %d fast: %v", i, err)
		}
		slow, err := c.coverExhaustive(start, poly)
		if err != nil {
			t.Fatalf("polygon %d slow: %v", i, err)
		}
		assertCoveringsEqual(t, "generated", fast, slow)
	}
}

// TestFastParityDisabledForPathologicalHoles: overlapping holes disable the
// parity shortcut but the covering still matches the reference.
func TestFastParityDisabledForPathologicalHoles(t *testing.T) {
	p := &geo.Polygon{
		Outer: []geo.LatLng{
			{Lat: 40.70, Lng: -74.02}, {Lat: 40.70, Lng: -73.96},
			{Lat: 40.76, Lng: -73.96}, {Lat: 40.76, Lng: -74.02},
		},
		// Two overlapping holes: even-odd over all edges would disagree
		// with outer-minus-holes semantics inside the overlap.
		Holes: [][]geo.LatLng{
			{{Lat: 40.72, Lng: -74.00}, {Lat: 40.72, Lng: -73.98}, {Lat: 40.74, Lng: -73.98}, {Lat: 40.74, Lng: -74.00}},
			{{Lat: 40.73, Lng: -73.99}, {Lat: 40.73, Lng: -73.97}, {Lat: 40.75, Lng: -73.97}, {Lat: 40.75, Lng: -73.99}},
		},
	}
	g := grid.NewPlanar()
	face, poly, err := grid.ProjectPolygon(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if canParity(poly) {
		t.Fatal("overlapping holes must disable the parity shortcut")
	}
	c, err := NewCoverer(g, 40)
	if err != nil {
		t.Fatal(err)
	}
	start := c.startCell(face, poly)
	fast, err := c.coverFast(start, poly, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := c.coverExhaustive(start, poly)
	if err != nil {
		t.Fatal(err)
	}
	assertCoveringsEqual(t, "pathological", fast, slow)
}

// randomGeoPolygon builds a random star polygon with an optional hole over
// NYC-scale coordinates.
func randomGeoPolygon(rng *rand.Rand) *geo.Polygon {
	cx := -74.1 + rng.Float64()*0.3
	cy := 40.6 + rng.Float64()*0.2
	n := 5 + rng.Intn(20)
	outer := make([]geo.LatLng, n)
	for i := range outer {
		ang := 2 * math.Pi * float64(i) / float64(n)
		rad := 0.005 + rng.Float64()*0.04
		outer[i] = geo.LatLng{Lng: cx + rad*math.Cos(ang), Lat: cy + rad*math.Sin(ang)}
	}
	p := &geo.Polygon{Outer: outer}
	if rng.Intn(2) == 0 {
		m := 3 + rng.Intn(6)
		hole := make([]geo.LatLng, m)
		for i := range hole {
			ang := 2 * math.Pi * float64(i) / float64(m)
			rad := 0.0005 + rng.Float64()*0.003
			hole[i] = geo.LatLng{Lng: cx + rad*math.Cos(ang), Lat: cy + rad*math.Sin(ang)}
		}
		p.Holes = append(p.Holes, hole)
	}
	return p
}

// fuzzPolygon decodes fuzz bytes into a projected polygon near New York on
// grid g: a star-ordered ring of 3–12 vertices and, when asked and when it
// fits inside, a star hole around the same centre. Each vertex takes three bytes: angle jitter,
// radius, and a mode byte whose bit 0 snaps the vertex to the dyadic grid of
// level 12 + (mode>>2)%6 — the corners of that level's cells — and whose bit
// 1 copies one coordinate of the previous vertex, making the edge between
// them axis-aligned. Snapped and aligned vertices put edges along cell
// borders and through cell corners, where crossing tests are ambiguous.
func fuzzPolygon(g grid.Grid, data []byte) (int, *geom.Polygon) {
	face, c := g.Project(geo.LatLng{Lat: 40.72, Lng: -73.98})
	r := math.Ldexp(0.6, -12) // about one level-12 cell
	ring := func(n int, scale float64) geom.Ring {
		out := make(geom.Ring, n)
		for i := range out {
			var b [3]byte
			if len(data) >= 3 {
				copy(b[:], data)
				data = data[3:]
			}
			ang := 2 * math.Pi * (float64(i) + float64(b[0])/256) / float64(n)
			rad := scale * (0.2 + 0.8*float64(b[1])/255)
			p := geom.Point{X: c.X + rad*math.Cos(ang), Y: c.Y + rad*math.Sin(ang)}
			if b[2]&1 != 0 {
				step := math.Ldexp(1, -(12 + int(b[2]>>2)%6))
				p = geom.Point{X: math.Round(p.X/step) * step, Y: math.Round(p.Y/step) * step}
			}
			if b[2]&2 != 0 && i > 0 {
				if b[2]&0x80 != 0 {
					p.X = out[i-1].X
				} else {
					p.Y = out[i-1].Y
				}
			}
			out[i] = p
		}
		return out
	}
	if len(data) < 2 {
		data = append([]byte{0, 0}, data...)
	}
	n, holeN := 3+int(data[0])%10, int(data[1])%5
	data = data[2:]
	outer := ring(n, r)
	poly := &geom.Polygon{Outer: outer}
	if holeN >= 2 {
		// A hole must lie inside the outer ring; one that pokes out is
		// dropped.
		if hole := ring(holeN+1, r/8); (&geom.Polygon{Outer: outer}).RelateRect(hole.Bound()) == geom.Contained {
			poly.Holes = []geom.Ring{hole}
		}
	}
	return face, poly
}

// FuzzCoverFastMatchesExhaustive: on polygons whose edges run along cell
// borders and through cell corners, the fast path's cell-local crossing
// parity and its ambiguity fallback give the reference covering, on both
// grids at a coarse and a fine ε.
func FuzzCoverFastMatchesExhaustive(f *testing.F) {
	f.Add([]byte{4, 0, 0, 255, 1, 64, 255, 1, 128, 255, 1, 192, 255, 1})
	// A square on level-14 cell corners with axis-aligned sides.
	f.Add([]byte{1, 0, 32, 200, 9, 32, 200, 0x8b, 32, 200, 11, 32, 200, 0x8b})
	// A triangle with a hole on level-17 corners, two of its sides
	// axis-aligned.
	f.Add([]byte{0, 3, 0, 255, 0, 0, 255, 0, 0, 255, 0, 0, 255, 21, 64, 255, 23, 128, 255, 0x97, 192, 100, 21})
	// Twelve vertices, every other one on level-17 corners.
	f.Add([]byte{9, 1, 10, 250, 21, 20, 90, 0, 30, 250, 21, 40, 90, 2, 50, 250, 21, 60, 90, 0x82,
		70, 250, 21, 80, 90, 0, 90, 250, 21, 100, 90, 2, 110, 250, 21, 120, 90, 0, 130, 250, 21, 140, 90, 0x82})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			t.Skip()
		}
		for _, g := range testGrids {
			face, poly := fuzzPolygon(g, data)
			for _, eps := range []float64{300, 80} {
				c, err := NewCoverer(g, eps)
				if err != nil {
					t.Fatal(err)
				}
				start := c.startCell(face, poly)
				fast, errFast := c.coverFast(start, poly, nil)
				slow, errSlow := c.coverExhaustive(start, poly)
				if (errFast == nil) != (errSlow == nil) {
					t.Fatalf("%s/%v: fast error %v, reference error %v", g.Name(), eps, errFast, errSlow)
				}
				if errFast == nil {
					assertCoveringsEqual(t, fmt.Sprintf("%s/%v", g.Name(), eps), fast, slow)
				}
			}
		}
	})
}

// TestCoverWithin: a budget of a covering's size yields the covering
// CoverProjected does and leaves nothing; one cell less is refused with
// ErrTooManyCells, at any precision, without covering past it.
func TestCoverWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var left atomic.Int64
	for trial := 0; trial < 10; trial++ {
		p := randomGeoPolygon(rng)
		for _, g := range testGrids {
			c, err := NewCoverer(g, 100)
			if err != nil {
				t.Fatal(err)
			}
			face, poly, err := grid.ProjectPolygon(g, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.CoverProjected(face, poly)
			if err != nil {
				t.Fatal(err)
			}
			n := int64(want.NumCells())
			left.Store(n)
			got, err := c.CoverWithin(face, poly, &left)
			if err != nil || left.Load() != 0 {
				t.Fatalf("trial %d %s: a budget of the covering's %d cells: %v, %d left", trial, g.Name(), n, err, left.Load())
			}
			assertCoveringsEqual(t, fmt.Sprintf("trial %d %s", trial, g.Name()), want, got)
			left.Store(n - 1)
			if _, err := c.CoverWithin(face, poly, &left); !errors.Is(err, ErrTooManyCells) {
				t.Fatalf("trial %d %s: a budget of %d cells, below the covering's %d: %v", trial, g.Name(), n-1, n, err)
			}
		}
	}
	// At 5 cm a polygon spanning kilometres has millions of boundary cells;
	// a budget of 1 000 stops the covering after that many.
	c, err := NewCoverer(testGrids[0], 0.05)
	if err != nil {
		t.Fatal(err)
	}
	face, poly, err := grid.ProjectPolygon(testGrids[0], randomGeoPolygon(rng))
	if err != nil {
		t.Fatal(err)
	}
	left.Store(1000)
	start := time.Now()
	if _, err := c.CoverWithin(face, poly, &left); !errors.Is(err, ErrTooManyCells) {
		t.Fatalf("a budget of 1000 cells at 5 cm: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("refusing a covering past 1000 cells took %v", d)
	}
}
