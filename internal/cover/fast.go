package cover

import (
	"fmt"

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
//     status is known) to the cell center decides the status using only
//     the parent's local edges. Whenever a floating-point sign cannot be
//     certified (geom.OrientSign), the code falls back to the exact
//     point-in-polygon test, so results are identical to the slow path.
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

// fastCover is the per-Cover state of the fast path.
type fastCover struct {
	c      *Coverer
	poly   *geom.Polygon
	edges  []edgeRec
	stack  []int32 // active edge indices, stack-allocated per depth
	cov    *Covering
	parity bool // whether the parity shortcut is sound for this polygon
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

// polygonEdges flattens all rings into edge records.
func polygonEdges(p *geom.Polygon) []edgeRec {
	total := len(p.Outer)
	for _, h := range p.Holes {
		total += len(h)
	}
	edges := make([]edgeRec, 0, total)
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
func (c *Coverer) coverFast(start cellid.ID, poly *geom.Polygon) (*Covering, error) {
	f := &fastCover{
		c:      c,
		poly:   poly,
		edges:  polygonEdges(poly),
		cov:    &Covering{},
		parity: canParity(poly),
		rules:  c.levelRules(start, poly.Bound()),
	}
	// The stack holds the active edges of every cell on the descent's path:
	// at ε = 60 m it peaks at 4–6 times the edge count on the benchmark's
	// maps (9 at the 99th percentile), so eight times rarely regrows.
	f.stack = make([]int32, len(f.edges), 8*len(f.edges))
	for i := range f.edges {
		f.stack[i] = int32(i)
	}
	startRect := grid.CellRect(start)
	refPt := startRect.Center()
	// The descent appends cells in id order: children are visited in Morton
	// order and only cells that stop the descent are kept.
	if err := f.visit(start, startRect, 0, len(f.edges), refPt, poly.ContainsPoint(refPt)); err != nil {
		return nil, err
	}
	return f.cov, nil
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
		if !e.bbox.Intersects(rect) {
			continue
		}
		f.stack = append(f.stack, ei)
		if !crossing && geom.SegmentIntersectsRect(e.a, e.b, rect) {
			crossing = true
		}
	}
	subHi := len(f.stack)

	// The center's status follows from the parent reference by crossing
	// parity over the parent's active edges (any edge crossing the segment
	// refPt→center lies in the parent cell, hence in f.stack[lo:hi]).
	center := rect.Center()
	if !crossing {
		// Uniform cell: decide its status once.
		if f.inside(refPt, refInside, center, lo, hi) {
			f.cov.Interior = append(f.cov.Interior, cell)
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
		if fits && diag > f.cov.AchievedPrecisionMeters {
			f.cov.AchievedPrecisionMeters = diag
		}
	}
	if fits {
		f.cov.Boundary = append(f.cov.Boundary, cell)
		return nil
	}
	if level >= cellid.MaxLevel {
		return fmt.Errorf("%w: cell %v at level cap %d has diagonal %.3f m > %.3f m",
			ErrPrecision, cell, cellid.MaxLevel, grid.CellDiagonalMeters(f.c.g, cell), f.c.precision)
	}
	// The center is the children's reference point. Splitting rect there is
	// bit-exact: cell corners are multiples of 2⁻³⁰ in [0, 1], so the sums
	// and halvings of Center round nothing and each child's rectangle equals
	// grid.CellRect(child).
	centerInside := f.inside(refPt, refInside, center, lo, hi)
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

// inside decides whether target is inside the polygon: by crossing parity
// from the reference point where that is sound and certain, exactly
// otherwise.
func (f *fastCover) inside(refPt geom.Point, refInside bool, target geom.Point, lo, hi int) bool {
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
		if !e.bbox.Intersects(seg) {
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
