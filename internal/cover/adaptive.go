package cover

import (
	"sort"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/grid"
)

// QuerySample summarizes an observed query-point distribution for adaptive
// refinement. The paper (§I) sketches this as future work: "adaptively
// alter the trie structure based on the distribution of query points to
// provide higher precision where it is actually needed".
//
// A sample is a sorted list of leaf cells of representative query points;
// the number of sample points inside any cell is then a binary-search range
// count.
type QuerySample struct {
	leaves []cellid.ID
}

// NewQuerySample builds a sample from observed query points.
func NewQuerySample(g grid.Grid, points []geo.LatLng) *QuerySample {
	leaves := make([]cellid.ID, len(points))
	for i, ll := range points {
		leaves[i] = grid.LeafCell(g, ll)
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })
	return &QuerySample{leaves: leaves}
}

// Len returns the number of sampled points.
func (q *QuerySample) Len() int { return len(q.leaves) }

// CountIn returns how many sampled points fall inside the cell.
func (q *QuerySample) CountIn(cell cellid.ID) int {
	lo := sort.Search(len(q.leaves), func(i int) bool { return q.leaves[i] >= cell.RangeMin() })
	hi := sort.Search(len(q.leaves), func(i int) bool { return q.leaves[i] > cell.RangeMax() })
	return hi - lo
}

// CoverAdaptive computes a covering under a cell budget, spending the
// budget where the query distribution concentrates: the refinement
// priority of a boundary cell is its diagonal weighted by the number of
// sampled queries hitting it. Cells nobody queries stay coarse; hot cells
// are driven down to the precision bound. The covering remains sound
// (interior cells exact, boundary cells cover the rest); only the
// effective precision varies spatially.
//
// The polygon comes projected onto a face of the coverer's grid, as for
// CoverProjected. maxCells bounds the covering size. The returned covering
// reports the worst-case AchievedPrecisionMeters across all boundary cells;
// use (*Covering).NumCells to see the budget consumption.
func (c *Coverer) CoverAdaptive(face int, poly *geom.Polygon, sample *QuerySample, maxCells int) (*Covering, error) {
	if maxCells <= 0 {
		return c.CoverProjected(face, poly)
	}
	start := c.startCell(face, poly)

	cov := &Covering{}
	pq := &cellHeap{}
	push := func(id cellid.ID) {
		switch poly.RelateRect(grid.CellRect(id)) {
		case geom.Disjoint:
		case geom.Contained:
			cov.Interior = append(cov.Interior, id)
		default:
			diag := grid.CellDiagonalMeters(c.g, id)
			// Weight by query pressure: a cell with q sampled queries
			// and diagonal d causes expected false-positive mass
			// proportional to q·d. Unqueried cells get weight d alone
			// so the covering still converges without samples.
			weight := diag * float64(1+sample.CountIn(id))
			if diag <= c.precision {
				// Already meets ε; no further refinement needed.
				cov.Boundary = append(cov.Boundary, id)
				if diag > cov.AchievedPrecisionMeters {
					cov.AchievedPrecisionMeters = diag
				}
				return
			}
			pq.push(cellEntry{id: id, diag: weight})
		}
	}
	push(start)
	var final []cellEntry
	for pq.Len() > 0 {
		total := len(cov.Interior) + len(cov.Boundary) + pq.Len() + len(final)
		if total+3 > maxCells {
			break
		}
		e := pq.pop()
		if e.id.Level() >= c.maxLevel {
			final = append(final, e)
			continue
		}
		for _, child := range e.id.Children() {
			push(child)
		}
	}
	for pq.Len() > 0 {
		final = append(final, pq.pop())
	}
	for _, e := range final {
		cov.Boundary = append(cov.Boundary, e.id)
		if d := grid.CellDiagonalMeters(c.g, e.id); d > cov.AchievedPrecisionMeters {
			cov.AchievedPrecisionMeters = d
		}
	}
	sortCells(cov.Boundary)
	sortCells(cov.Interior)
	return cov, nil
}
