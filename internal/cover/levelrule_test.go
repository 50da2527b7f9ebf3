package cover

import (
	"math/rand"
	"testing"

	"github.com/actindex/act/internal/grid"
)

// TestFastMatchesExhaustiveAtAmbiguousPrecision sets ε to the diagonal of a
// cell in the middle of the polygon, so that at that level the rows nearer
// the equator are too large and the rows farther from it fit: the level rule
// has to fall back to measuring cells, boundary cells end up on two levels,
// and the fast path must still agree with the reference cell for cell and
// on the achieved precision.
func TestFastMatchesExhaustiveAtAmbiguousPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(1405))
	g := grid.NewPlanar()
	mixed := 0
	for trial := 0; trial < 40; trial++ {
		p := randomGeoPolygon(rng)
		face, poly, err := grid.ProjectPolygon(g, p)
		if err != nil {
			t.Fatal(err)
		}
		level := 14 + rng.Intn(6)
		eps := grid.CellDiagonalMeters(g, grid.PointToCell(g, g.Unproject(face, poly.Bound().Center()), level))
		c, err := NewCoverer(g, eps)
		if err != nil {
			t.Fatal(err)
		}
		start := c.startCell(face, poly)
		if rules := c.levelRules(start, poly.Bound()); !rules[level].exact {
			t.Fatalf("trial %d: level %d is not measured cell by cell at ε = its own diagonal", trial, level)
		}
		fast, err := c.coverFast(start, poly)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := c.coverExhaustive(start, poly)
		if err != nil {
			t.Fatal(err)
		}
		assertCoveringsEqual(t, "ambiguous", fast, slow)
		levels := map[int]bool{}
		for _, cell := range fast.Boundary {
			levels[cell.Level()] = true
		}
		if len(levels) > 1 {
			mixed++
		}
	}
	if mixed == 0 {
		t.Error("no trial produced boundary cells on two levels; the test does not reach the measured band")
	}
}
