package cover

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/grid"
)

// testPolygon is an irregular polygon with a hole, roughly 4 km across,
// placed over lower Manhattan.
func testPolygon() *geo.Polygon {
	return &geo.Polygon{
		Outer: []geo.LatLng{
			{Lat: 40.700, Lng: -74.020},
			{Lat: 40.705, Lng: -73.990},
			{Lat: 40.720, Lng: -73.975},
			{Lat: 40.740, Lng: -73.985},
			{Lat: 40.735, Lng: -74.010},
			{Lat: 40.715, Lng: -74.025},
		},
		Holes: [][]geo.LatLng{{
			{Lat: 40.715, Lng: -74.000},
			{Lat: 40.720, Lng: -73.995},
			{Lat: 40.725, Lng: -74.002},
			{Lat: 40.718, Lng: -74.006},
		}},
	}
}

var testGrids = []grid.Grid{grid.NewPlanar(), grid.NewCubeFace()}

// coveringContains reports whether the sorted, prefix-free cell set covers
// the given leaf cell.
func coveringContains(cells []cellid.ID, leaf cellid.ID) bool {
	i := sort.Search(len(cells), func(i int) bool { return cells[i].RangeMax() >= leaf })
	return i < len(cells) && cells[i].Contains(leaf)
}

func TestCoveringSoundness(t *testing.T) {
	p := testPolygon()
	for _, g := range testGrids {
		for _, eps := range []float64{200, 30} {
			c, err := NewCoverer(g, eps)
			if err != nil {
				t.Fatal(err)
			}
			cov, err := c.Cover(p)
			if err != nil {
				t.Fatalf("%s/%v: %v", g.Name(), eps, err)
			}
			if cov.NumCells() == 0 {
				t.Fatalf("%s/%v: empty covering", g.Name(), eps)
			}
			if cov.AchievedPrecisionMeters > eps {
				t.Errorf("%s/%v: achieved precision %.3f > requested %.3f",
					g.Name(), eps, cov.AchievedPrecisionMeters, eps)
			}

			face, poly, err := grid.ProjectPolygon(g, p)
			if err != nil {
				t.Fatal(err)
			}
			bound := p.Bound()
			rng := rand.New(rand.NewSource(11))
			var insidePts, interiorHits int
			for n := 0; n < 3000; n++ {
				ll := geo.LatLng{
					Lat: bound.MinLat + rng.Float64()*(bound.MaxLat-bound.MinLat),
					Lng: bound.MinLng + rng.Float64()*(bound.MaxLng-bound.MinLng),
				}
				f, st := g.Project(ll)
				if f != face {
					continue
				}
				inside := poly.ContainsPoint(st)
				leaf := grid.LeafCell(g, ll)
				inInterior := coveringContains(cov.Interior, leaf)
				inBoundary := coveringContains(cov.Boundary, leaf)

				if inInterior && inBoundary {
					t.Fatalf("%s/%v: %v in both interior and boundary", g.Name(), eps, ll)
				}
				if inside {
					insidePts++
					// No false negatives: every inside point is covered.
					if !inInterior && !inBoundary {
						t.Fatalf("%s/%v: inside point %v not covered", g.Name(), eps, ll)
					}
				}
				if inInterior {
					interiorHits++
					// Interior cells guarantee true hits.
					if !inside {
						t.Fatalf("%s/%v: interior cell contains outside point %v", g.Name(), eps, ll)
					}
				}
			}
			if insidePts < 500 {
				t.Fatalf("%s/%v: too few inside samples (%d), bad test setup", g.Name(), eps, insidePts)
			}
			// The interior should capture the bulk of the polygon's area.
			if interiorHits*2 < insidePts {
				t.Errorf("%s/%v: interior cells caught only %d/%d inside points",
					g.Name(), eps, interiorHits, insidePts)
			}
		}
	}
}

func TestCoveringPrecisionBound(t *testing.T) {
	p := testPolygon()
	for _, g := range testGrids {
		for _, eps := range []float64{500, 60, 15, 4} {
			c, err := NewCoverer(g, eps)
			if err != nil {
				t.Fatal(err)
			}
			cov, err := c.Cover(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range cov.Boundary {
				if d := grid.CellDiagonalMeters(g, id); d > eps {
					t.Fatalf("%s/%v: boundary cell %v diagonal %.3f > ε", g.Name(), eps, id, d)
				}
			}
		}
	}
}

func TestCoveringPrefixFree(t *testing.T) {
	p := testPolygon()
	for _, g := range testGrids {
		c, err := NewCoverer(g, 60)
		if err != nil {
			t.Fatal(err)
		}
		cov, err := c.Cover(p)
		if err != nil {
			t.Fatal(err)
		}
		all := append(append([]cellid.ID{}, cov.Boundary...), cov.Interior...)
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		for i := 1; i < len(all); i++ {
			if all[i-1].Intersects(all[i]) {
				t.Fatalf("%s: overlapping cells %v and %v", g.Name(), all[i-1], all[i])
			}
		}
	}
}

func TestCoveringFinerPrecisionMoreCells(t *testing.T) {
	p := testPolygon()
	g := grid.NewPlanar()
	var prev int
	for _, eps := range []float64{500, 60, 15} {
		c, _ := NewCoverer(g, eps)
		cov, err := c.Cover(p)
		if err != nil {
			t.Fatal(err)
		}
		if cov.NumCells() <= prev {
			t.Fatalf("eps %v: cells %d not greater than coarser %d", eps, cov.NumCells(), prev)
		}
		prev = cov.NumCells()
	}
}

func TestCovererRejectsBadPrecision(t *testing.T) {
	g := grid.NewPlanar()
	for _, eps := range []float64{0, -5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := NewCoverer(g, eps)
		if err == nil || !strings.Contains(err.Error(), "precision must be positive and finite") {
			t.Errorf("precision %v: got %v, want a positive-and-finite error", eps, err)
		}
	}
}

func TestCovererPrecisionUnachievable(t *testing.T) {
	// A level-30 cell over New York is 0.034 m across, so 1 mm is
	// unreachable within the level cap.
	for _, g := range testGrids {
		c, err := NewCoverer(g, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Cover(testPolygon()); !errors.Is(err, ErrPrecision) {
			t.Errorf("%s: got %v, want ErrPrecision", g.Name(), err)
		}
	}
}

func TestCoveringHoleExcluded(t *testing.T) {
	// Points well inside the hole must not match interior cells.
	p := testPolygon()
	g := grid.NewPlanar()
	c, _ := NewCoverer(g, 15)
	cov, err := c.Cover(p)
	if err != nil {
		t.Fatal(err)
	}
	holeCenter := geo.LatLng{Lat: 40.7195, Lng: -74.0005}
	leaf := grid.LeafCell(g, holeCenter)
	if coveringContains(cov.Interior, leaf) {
		t.Error("hole center matched an interior cell")
	}
}
