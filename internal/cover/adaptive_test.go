package cover

import (
	"math/rand"
	"testing"

	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/grid"
)

func TestQuerySampleCounts(t *testing.T) {
	g := grid.NewPlanar()
	pts := []geo.LatLng{
		{Lat: 40.71, Lng: -74.01},
		{Lat: 40.71, Lng: -74.01},
		{Lat: 40.72, Lng: -74.00},
		{Lat: 10, Lng: 10},
	}
	s := NewQuerySample(g, pts)
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	// A coarse NYC cell should contain the three NYC points.
	nyc := grid.PointToCell(g, geo.LatLng{Lat: 40.715, Lng: -74.005}, 8)
	if got := s.CountIn(nyc); got != 3 {
		t.Errorf("CountIn(NYC level 8) = %d, want 3", got)
	}
	// A leaf-level cell at the duplicated point counts 2.
	dup := grid.LeafCell(g, pts[0])
	if got := s.CountIn(dup); got != 2 {
		t.Errorf("CountIn(dup leaf) = %d, want 2", got)
	}
	far := grid.PointToCell(g, geo.LatLng{Lat: -40, Lng: 100}, 8)
	if got := s.CountIn(far); got != 0 {
		t.Errorf("CountIn(far) = %d, want 0", got)
	}
}

// TestCoverAdaptiveFocusesBudget is the paper's future-work claim: under
// the same cell budget, the query-weighted covering achieves tighter cells
// where queries concentrate than the query-oblivious budgeted covering.
func TestCoverAdaptiveFocusesBudget(t *testing.T) {
	g := grid.NewPlanar()
	p := testPolygon()

	// Queries hammer a small hot segment of the boundary.
	hot := geo.LatLng{Lat: 40.705, Lng: -73.99} // near a vertex of the outer ring
	rng := rand.New(rand.NewSource(77))
	var queries []geo.LatLng
	for i := 0; i < 3000; i++ {
		queries = append(queries, geo.LatLng{
			Lat: hot.Lat + rng.NormFloat64()*0.0004,
			Lng: hot.Lng + rng.NormFloat64()*0.0004,
		})
	}
	sample := NewQuerySample(g, queries)

	const budget = 600
	c, err := NewCoverer(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	face, poly, err := grid.ProjectPolygon(g, p)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := c.CoverAdaptive(face, poly, sample, budget)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.NumCells() > budget {
		t.Fatalf("adaptive covering has %d cells > budget %d", adaptive.NumCells(), budget)
	}

	oblivious, err := NewCoverer(g, 4, WithMaxCells(budget))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := oblivious.Cover(p)
	if err != nil {
		t.Fatal(err)
	}

	// Compare the worst boundary-cell diagonal among cells the queries
	// actually hit: the adaptive covering should be strictly tighter
	// there.
	worstHit := func(cov *Covering) float64 {
		worst := 0.0
		for _, id := range cov.Boundary {
			if sample.CountIn(id) == 0 {
				continue
			}
			if d := grid.CellDiagonalMeters(g, id); d > worst {
				worst = d
			}
		}
		return worst
	}
	wa, wp := worstHit(adaptive), worstHit(plain)
	if wa == 0 {
		t.Fatal("no query-hit boundary cells in adaptive covering; test setup broken")
	}
	if wa >= wp {
		t.Errorf("adaptive worst hot-cell diagonal %.2f m not tighter than oblivious %.2f m", wa, wp)
	}

	// Soundness still holds: interior cells only contain inside points.
	bound := p.Bound()
	for n := 0; n < 2000; n++ {
		ll := geo.LatLng{
			Lat: bound.MinLat + rng.Float64()*(bound.MaxLat-bound.MinLat),
			Lng: bound.MinLng + rng.Float64()*(bound.MaxLng-bound.MinLng),
		}
		f, st := g.Project(ll)
		if f != face {
			continue
		}
		leaf := grid.LeafCell(g, ll)
		inside := poly.ContainsPoint(st)
		inInterior := coveringContains(adaptive.Interior, leaf)
		covered := inInterior || coveringContains(adaptive.Boundary, leaf)
		if inside && !covered {
			t.Fatalf("adaptive covering missed inside point %v", ll)
		}
		if inInterior && !inside {
			t.Fatalf("adaptive interior cell contains outside point %v", ll)
		}
	}
}

func TestCoverAdaptiveNoBudgetFallsBack(t *testing.T) {
	g := grid.NewPlanar()
	c, err := NewCoverer(g, 30)
	if err != nil {
		t.Fatal(err)
	}
	sample := NewQuerySample(g, nil)
	face, poly, err := grid.ProjectPolygon(g, testPolygon())
	if err != nil {
		t.Fatal(err)
	}
	cov, err := c.CoverAdaptive(face, poly, sample, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.Cover(testPolygon())
	if err != nil {
		t.Fatal(err)
	}
	if cov.NumCells() != full.NumCells() {
		t.Errorf("no-budget adaptive covering should equal the exhaustive one: %d vs %d",
			cov.NumCells(), full.NumCells())
	}
}
