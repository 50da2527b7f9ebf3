package cover

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/grid"
)

// The fast covering path avoids the O(vertices) cost per visited cell of
// the straightforward classifier. Two ideas:
//
//  1. Hierarchical edge filtering: each recursion level narrows the set of
//     polygon edges that can possibly touch the current cell (bounding-box
//     prefilter). Classification then tests only the local edges, so the
//     total work is proportional to the boundary length instead of
//     #cells × #vertices.
//
//  2. Incremental inside/outside propagation: when no local edge touches a
//     cell, the whole cell is uniformly inside or outside. Instead of an
//     O(vertices) point-in-polygon test, the parity of certified edge
//     crossings along the segment from the parent's reference point (whose
//     status is known) to the cell center decides the status. Whenever a
//     floating-point sign cannot be certified (geom.OrientSign), the code
//     falls back to the exact point-in-polygon test, so results are
//     identical to the slow path.
//
//     The crossings are counted over the cell's own active edges, not its
//     parent's. The reference point is the parent's center, a corner of the
//     cell, so the segment to the cell's center lies in the cell's closed
//     rectangle: an edge whose box meets the segment meets the rectangle,
//     and the cell's list holds exactly those edges, in the parent's order.
//     The same edges are tested in the same order, so the count, the
//     ambiguity fallback and the result are those of the parent's list; a
//     cell no edge comes near keeps the reference status without a test.
//
//  3. Level rules: whether a boundary cell is small enough is decided per
//     level, not per cell. The cells of one level under a polygon's
//     bounding box have nearly the same diagonal, so one bound on it
//     (grid.CellDiagonalBand) settles the comparison with ε for all of them;
//     the haversine runs only for the cells of a level the bound leaves
//     open, and for the few cells that can hold the largest diagonal, which
//     AchievedPrecisionMeters reports.
//
// The parity argument treats the polygon boundary as one even-odd edge
// set, which matches Polygon.ContainsPoint only when holes are disjoint
// and inside the outer ring; canParity checks that (conservatively, via
// bounding boxes) and disables the parity shortcut otherwise.

// edgeRec is one polygon edge with its bounding box.
type edgeRec struct {
	a, b geom.Point
	bbox geom.Rect
}

// levelRule says how boundary cells of one level compare with ε.
type levelRule struct {
	// fits: every cell's diagonal is at most ε; otherwise, unless exact is
	// set, every cell's diagonal exceeds ε and the cell must split.
	fits bool
	// exact: the level's diagonals straddle ε; each cell is measured.
	exact bool
	// peak is where the largest diagonals of a level that fits lie.
	peak geom.Rect
}

// fastCover is the per-Cover state of the fast path. Its buffers outlive
// a call: coverFast takes one from scratchPool and puts it back, so a
// goroutine covering polygon after polygon reuses them, and each covering
// copies its cells out once, at their final size.
type fastCover struct {
	c     *Coverer
	poly  *geom.Polygon
	edges []edgeRec
	stack []int32 // active edge indices, stack-allocated per depth
	// boundary and interior collect the covering's cells; achieved is its
	// AchievedPrecisionMeters.
	boundary, interior []cellid.ID
	achieved           float64
	left               *atomic.Int64 // the budget cells are taken from, or nil
	parity             bool          // whether the parity shortcut is sound for this polygon
	// rules is indexed by level, from the start cell's down to the first
	// that fits — below which nothing is visited — or the level cap.
	rules [cellid.MaxLevel + 1]levelRule
}

// levelRules compares ε with the diagonals of each level from the start
// cell's down to the first level whose cells all fit.
func (c *Coverer) levelRules(start cellid.ID, bound geom.Rect) (rules [cellid.MaxLevel + 1]levelRule) {
	for level := start.Level(); level <= cellid.MaxLevel; level++ {
		lo, hi, peak := grid.CellDiagonalBand(c.g, start.Face(), bound, level)
		if hi <= c.precision {
			rules[level] = levelRule{fits: true, peak: peak}
			break
		}
		rules[level].exact = lo <= c.precision
	}
	return rules
}

var scratchPool = sync.Pool{New: func() any { return new(fastCover) }}

// appendEdges flattens all rings into edge records appended to edges.
func appendEdges(edges []edgeRec, p *geom.Polygon) []edgeRec {
	addRing := func(ring geom.Ring) {
		n := len(ring)
		for i := 0; i < n; i++ {
			a, b := ring[i], ring[(i+1)%n]
			edges = append(edges, edgeRec{a: a, b: b, bbox: geom.RectFromPoints(a, b)})
		}
	}
	addRing(p.Outer)
	for _, h := range p.Holes {
		addRing(h)
	}
	return edges
}

// canParity reports whether global even-odd parity equals the polygon's
// outer-minus-holes semantics: holes pairwise disjoint and inside the
// outer ring (checked conservatively on bounding boxes).
func canParity(p *geom.Polygon) bool {
	outer := p.Outer.Bound()
	for i, h := range p.Holes {
		hb := h.Bound()
		if !outer.ContainsRect(hb) {
			return false
		}
		for j := i + 1; j < len(p.Holes); j++ {
			if hb.Intersects(p.Holes[j].Bound()) {
				return false
			}
		}
	}
	return true
}

// coverFast is the production covering path; its output is identical to
// coverExhaustive (asserted by TestFastMatchesExhaustive).
func (c *Coverer) coverFast(start cellid.ID, poly *geom.Polygon, left *atomic.Int64) (*Covering, error) {
	f := scratchPool.Get().(*fastCover)
	defer func() {
		f.c, f.poly, f.left = nil, nil, nil
		scratchPool.Put(f)
	}()
	f.c, f.poly, f.parity, f.left = c, poly, canParity(poly), left
	f.rules = c.levelRules(start, poly.Bound())
	f.edges = appendEdges(f.edges[:0], poly)
	// The stack holds the active edges of every cell on the descent's path.
	f.stack = f.stack[:0]
	for i := range f.edges {
		f.stack = append(f.stack, int32(i))
	}
	f.boundary, f.interior, f.achieved = f.boundary[:0], f.interior[:0], 0
	startRect := grid.CellRect(start)
	refPt := startRect.Center()
	// The descent appends cells in id order: children are visited in Morton
	// order and only cells that stop the descent are kept.
	if err := f.visit(start, startRect, 0, len(f.edges), refPt, poly.ContainsPoint(refPt)); err != nil {
		return nil, err
	}
	// One exact-size array for both lists: the index keeps coverings (the
	// delta overlay's), so they carry no spare capacity.
	cov := &Covering{AchievedPrecisionMeters: f.achieved}
	cells := make([]cellid.ID, len(f.boundary)+len(f.interior))
	nb := copy(cells, f.boundary)
	copy(cells[nb:], f.interior)
	if nb > 0 {
		cov.Boundary = cells[:nb:nb]
	}
	if nb < len(cells) {
		cov.Interior = cells[nb:]
	}
	return cov, nil
}

// meets reports whether two closed rectangles intersect. Unlike
// geom.Rect.Intersects it does not ask whether either is empty: edge boxes,
// cell rectangles and segment boxes never are.
func meets(a, b geom.Rect) bool {
	return a.Min.X <= b.Max.X && b.Min.X <= a.Max.X &&
		a.Min.Y <= b.Max.Y && b.Min.Y <= a.Max.Y
}

// visit classifies cell, which spans rect (grid.CellRect(cell)) and whose
// candidate edges are f.stack[lo:hi]. refPt is a point in the cell's parent
// (or the cell itself at the root) with known containment status refInside.
// The cell's own candidate edges are left on the stack above hi for the
// caller to drop.
func (f *fastCover) visit(cell cellid.ID, rect geom.Rect, lo, hi int, refPt geom.Point, refInside bool) error {
	// Narrow the active edge set and detect boundary contact.
	subLo := len(f.stack)
	crossing := false
	for _, ei := range f.stack[lo:hi] {
		e := &f.edges[ei]
		if !meets(e.bbox, rect) {
			continue
		}
		f.stack = append(f.stack, ei)
		if !crossing && geom.SegmentIntersectsRect(e.a, e.b, rect) {
			crossing = true
		}
	}
	subHi := len(f.stack)

	// The center's status follows from the reference point by crossing
	// parity over the cell's own active edges: refPt is a corner of the
	// cell, so any edge crossing the segment refPt→center meets the cell and
	// is in f.stack[subLo:subHi].
	center := rect.Center()
	if !crossing {
		// Uniform cell: decide its status once.
		if f.inside(refPt, refInside, center, subLo, subHi) {
			f.interior = append(f.interior, cell)
			return f.take()
		}
		return nil
	}

	level := cell.Level()
	rule := &f.rules[level]
	fits := rule.fits
	if rule.exact || fits && rect.Intersects(rule.peak) {
		diag := grid.CellDiagonalMeters(f.c.g, cell)
		if rule.exact {
			fits = diag <= f.c.precision
		}
		if fits && diag > f.achieved {
			f.achieved = diag
		}
	}
	if fits {
		f.boundary = append(f.boundary, cell)
		return f.take()
	}
	if level >= cellid.MaxLevel {
		return fmt.Errorf("%w: cell %v at level cap %d has diagonal %.3f m > %.3f m",
			ErrPrecision, cell, cellid.MaxLevel, grid.CellDiagonalMeters(f.c.g, cell), f.c.precision)
	}
	// The center is the children's reference point. Splitting rect there is
	// bit-exact: cell corners are multiples of 2⁻³⁰ in [0, 1], so the sums
	// and halvings of Center round nothing and each child's rectangle equals
	// grid.CellRect(child).
	centerInside := f.inside(refPt, refInside, center, subLo, subHi)
	for k, child := range cell.Children() {
		f.stack = f.stack[:subHi] // drop the previous child's edges
		// Child k's quadrant is (iBit<<1)|jBit: bit 1 picks the upper half
		// in x, bit 0 in y.
		sub := rect
		if k&2 == 0 {
			sub.Max.X = center.X
		} else {
			sub.Min.X = center.X
		}
		if k&1 == 0 {
			sub.Max.Y = center.Y
		} else {
			sub.Min.Y = center.Y
		}
		if err := f.visit(child, sub, subLo, subHi, center, centerInside); err != nil {
			return err
		}
	}
	return nil
}

// take takes the cell just kept from the budget, if there is one.
func (f *fastCover) take() error {
	if f.left != nil && f.left.Add(-1) < 0 {
		return ErrTooManyCells
	}
	return nil
}

// inside decides whether target is inside the polygon: by crossing parity
// from the reference point where that is sound and certain, exactly
// otherwise. With no active edge there is nothing to cross and the target
// has the reference point's status — every uniform cell of the census map
// at ε = 60 m — which this small, inlined test settles.
func (f *fastCover) inside(refPt geom.Point, refInside bool, target geom.Point, lo, hi int) bool {
	if f.parity && lo == hi {
		return refInside
	}
	return f.decide(refPt, refInside, target, lo, hi)
}

// decide is inside's general case.
func (f *fastCover) decide(refPt geom.Point, refInside bool, target geom.Point, lo, hi int) bool {
	if f.parity {
		if inside, ok := f.parityInside(refPt, refInside, target, lo, hi); ok {
			return inside
		}
	}
	return f.poly.ContainsPoint(target)
}

// parityInside decides whether target is inside the polygon given a
// reference point with known status, by counting certified proper crossings
// of the segment refPt→target with the active edges. ok is false when any
// crossing test is ambiguous (caller falls back to the exact test).
func (f *fastCover) parityInside(refPt geom.Point, refInside bool, target geom.Point, lo, hi int) (inside, ok bool) {
	if refPt == target {
		return refInside, true
	}
	// An edge whose box the segment's box misses cannot cross it.
	seg := geom.Rect{
		Min: geom.Point{X: min(refPt.X, target.X), Y: min(refPt.Y, target.Y)},
		Max: geom.Point{X: max(refPt.X, target.X), Y: max(refPt.Y, target.Y)},
	}
	crossings := 0
	for _, ei := range f.stack[lo:hi] {
		e := &f.edges[ei]
		if !meets(e.bbox, seg) {
			continue
		}
		cross, certain := geom.SegmentsCrossCertified(refPt, target, e.a, e.b)
		if !certain {
			// Ambiguity is rare; rather than reasoning about endpoint
			// touches, resolve the whole decision exactly.
			return false, false
		}
		if cross {
			crossings++
		}
	}
	return refInside != (crossings%2 == 1), true
}
