// Package cover computes hierarchical-grid approximations of polygons: the
// coverings and interior coverings of the paper's §II.
//
// A covering splits the cells touching a polygon into two disjoint sets:
//
//   - interior cells, entirely inside the polygon: any point matching one is
//     a true hit;
//   - boundary cells, overlapping the polygon boundary: a point matching one
//     may be inside or outside, but — because boundary cells are refined
//     until their diagonal is at most the configured precision bound ε —
//     such a point is within ε meters of the polygon. This is the paper's
//     precision guarantee: false positives are at most ε away from their
//     join partner.
//
// Together the two sets cover the polygon completely, so the approximate
// join has no false negatives.
//
// Coverer.Descend covers a whole polygon set in one descent of the grid and
// merges the coverings into the set's super covering as it goes; Cover is
// the same descent over one polygon (see descent.go).
package cover

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/grid"
)

// Covering is the grid approximation of one polygon.
type Covering struct {
	// Boundary holds the cells that overlap the polygon boundary, sorted
	// by id. Points in these cells are candidate hits.
	Boundary []cellid.ID
	// Interior holds the cells entirely inside the polygon, sorted by id.
	// Points in these cells are true hits.
	Interior []cellid.ID
	// AchievedPrecisionMeters is the largest diagonal among boundary
	// cells — the actual worst-case distance bound for false positives.
	// It is 0 for polygons with no boundary cells and always ≤ the
	// requested precision.
	AchievedPrecisionMeters float64
}

// NumCells returns the total number of cells in the covering.
func (c *Covering) NumCells() int { return len(c.Boundary) + len(c.Interior) }

// Coverer computes coverings on a particular grid: every boundary cell is
// refined until its diagonal is at most the precision bound, down to
// cellid.MaxLevel. A covering is a function of the polygon, the grid and the
// bound alone.
//
// The zero value is not usable; construct with NewCoverer.
type Coverer struct {
	g grid.Grid
	// precision is the target bound ε in meters.
	precision float64
}

// ErrPrecision is returned when the requested precision cannot be achieved
// within the level cap.
var ErrPrecision = errors.New("cover: requested precision not achievable")

// ErrTooManyCells is returned by CoverWithin and Descend when the coverings
// drawing on one count of cells would hold more than it allows.
var ErrTooManyCells = errors.New("cover: coverings exceed their cell budget")

// NewCoverer returns a coverer for the given grid and precision bound in
// meters. precision must be positive and finite.
func NewCoverer(g grid.Grid, precisionMeters float64) (*Coverer, error) {
	if !(precisionMeters > 0) || math.IsInf(precisionMeters, 1) {
		return nil, fmt.Errorf("cover: precision must be positive and finite, got %v", precisionMeters)
	}
	return &Coverer{g: g, precision: precisionMeters}, nil
}

// Grid returns the grid the coverer operates on.
func (c *Coverer) Grid() grid.Grid { return c.g }

// PrecisionMeters returns the configured precision bound.
func (c *Coverer) PrecisionMeters() float64 { return c.precision }

// Cover computes the covering of the polygon.
func (c *Coverer) Cover(p *geo.Polygon) (*Covering, error) {
	face, poly, err := grid.ProjectPolygon(c.g, p)
	if err != nil {
		return nil, err
	}
	return c.CoverProjected(face, poly)
}

// CoverProjected computes the covering of a polygon already projected onto
// a face of the coverer's grid (grid.ProjectPolygon), for callers that keep
// the projection.
func (c *Coverer) CoverProjected(face int, poly *geom.Polygon) (*Covering, error) {
	return c.CoverWithin(face, poly, nil)
}

// CoverWithin is CoverProjected drawing on a budget: left counts the cells
// the coverings that share it may still hold, and each cell a covering
// keeps takes one. Once none is left the covering stops and reports
// ErrTooManyCells, so a polygon and a precision from an untrusted source
// cost no more than the budget, however many goroutines cover at once. A
// nil left is no budget.
func (c *Coverer) CoverWithin(face int, poly *geom.Polygon, left *atomic.Int64) (*Covering, error) {
	// The descent (hierarchical edge filtering) produces output identical
	// to coverExhaustive at a fraction of the cost on complex polygons;
	// coverExhaustive remains as the reference implementation.
	return c.coverFast(c.startCell(face, poly), poly, left)
}

// startCell returns the smallest single cell containing the polygon's
// projected bounding box, from which classification descends. Starting here
// instead of at the face cell skips the levels where the polygon occupies a
// vanishing fraction of the cell.
func (c *Coverer) startCell(face int, poly *geom.Polygon) cellid.ID {
	b := poly.Bound()
	lo := cellid.FromFaceIJ(face, stToIJClamped(b.Min.X), stToIJClamped(b.Min.Y))
	hi := cellid.FromFaceIJ(face, stToIJClamped(b.Max.X), stToIJClamped(b.Max.Y))
	anc, ok := cellid.CommonAncestor(lo, hi)
	if !ok {
		return cellid.FromFace(face)
	}
	return anc
}

func stToIJClamped(s float64) int {
	i := int(s * cellid.MaxSize)
	if i < 0 {
		return 0
	}
	if i >= cellid.MaxSize {
		return cellid.MaxSize - 1
	}
	return i
}

// coverExhaustive refines every boundary cell until its diagonal meets the
// precision bound.
func (c *Coverer) coverExhaustive(start cellid.ID, poly *geom.Polygon) (*Covering, error) {
	cov := &Covering{}
	var visit func(id cellid.ID) error
	visit = func(id cellid.ID) error {
		switch poly.RelateRect(grid.CellRect(id)) {
		case geom.Disjoint:
			return nil
		case geom.Contained:
			cov.Interior = append(cov.Interior, id)
			return nil
		}
		diag := grid.CellDiagonalMeters(c.g, id)
		if diag <= c.precision {
			cov.Boundary = append(cov.Boundary, id)
			if diag > cov.AchievedPrecisionMeters {
				cov.AchievedPrecisionMeters = diag
			}
			return nil
		}
		if id.Level() >= cellid.MaxLevel {
			return fmt.Errorf("%w: cell %v at level cap %d has diagonal %.3f m > %.3f m",
				ErrPrecision, id, cellid.MaxLevel, diag, c.precision)
		}
		for _, child := range id.Children() {
			if err := visit(child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(start); err != nil {
		return nil, err
	}
	sortCells(cov.Boundary)
	sortCells(cov.Interior)
	return cov, nil
}

func sortCells(cells []cellid.ID) {
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
}
