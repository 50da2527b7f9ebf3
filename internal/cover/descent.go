package cover

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/grid"
)

// The covering path is one top-down descent of the grid that covers a whole
// polygon set at once and merges the coverings as it goes (Descend); a
// single polygon's covering (Cover) is the descent of a one-polygon set.
//
// Each polygon joins the descent at its start cell and goes down with it
// until its own covering stops: at a cell inside it (interior), at a cell
// its boundary crosses whose diagonal is at most ε (boundary), or at a cell
// it misses. A cell that some polygon must still split, or in which one
// starts below, is split for all: the references of the polygons that
// stopped at it or above it pass down to its children, which is the super
// covering's pushdown (paper §II). A cell that nothing splits is handed over
// with the references of the polygons that stopped at it or above it,
// merged in id order, so the cells come out in ascending id order,
// prefix-free and merged — no pair list to sort and no forward pass to
// merge it.
//
// The descent goes a step at a time: a step classifies each polygon
// reaching a split cell's children at all four, one polygon after the
// other, before it settles any child. A child that is settled there costs no
// call of its own, and a polygon's edges are read four times in a row.
//
// Classifying a cell for one polygon avoids the O(vertices) cost per visited
// cell of the straightforward classifier (coverExhaustive). Three ideas:
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

// Ref is a polygon reference attached to a cell of a merged covering: the
// polygon id plus the interior flag distinguishing true hits from candidate
// hits.
type Ref struct {
	PolygonID uint32
	// Interior is true when the cell lies entirely inside the polygon, so
	// a point matching the cell is a true hit for this polygon.
	Interior bool
}

// Shape is one polygon of a Descend: its projection onto a face of the
// coverer's grid (grid.ProjectPolygon) and the id its references carry.
type Shape struct {
	Face int
	Poly *geom.Polygon
	ID   uint32
}

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

// member is a polygon waiting for the descent to reach its start cell.
type member struct {
	start cellid.ID
	shape int32 // index into descent.shapes
}

// joined is a polygon whose start cell the descent has reached: what
// classifying it takes, kept while the descent is below that cell. Its
// level rules (levelRules) are folded into a cache line: the levels from
// the start cell's down to fit, the first whose cells all fit — below which
// nothing is visited — or past the level cap when none does, where exact
// has a bit for each level whose cells are measured one by one, and peak is
// where fit's largest diagonals lie.
type joined struct {
	poly   *geom.Polygon
	id     uint32
	exact  uint32
	fit    uint8
	parity bool // whether the parity shortcut is sound for this polygon
	peak   geom.Rect
}

// entry is a polygon the descent carries into a step: undecided in the
// parent of the step's cells, or, when fresh, starting at the step's cell
// at, the only one it reaches.
type entry struct {
	j      int32 // its record in descent.joined
	lo, hi int32 // its candidate edges, descent.stack[lo:hi]
	// inside is the status of the reference point: the parent's center, or
	// the start cell's own when fresh.
	inside, fresh bool
	at            uint8
}

// descent is the state of one Descend or Cover. Its buffers outlive a call:
// both take one from scratchPool and put it back. Every list is a stack
// that a step grows and cuts back when it is done, so the descent holds the
// edges of just the polygons that started at the steps on its path.
type descent struct {
	c       *Coverer
	shapes  []Shape
	one     [1]Shape // Cover's shape
	members []member // in interval order of their start cells
	joined  []joined
	edges   []edgeRec
	stack   []int32 // candidate edges, indices into edges
	entries []entry
	// refs holds the references stopping at the cells of each step on the
	// path, and those each cell passes to its children.
	refs []Ref
	// achieved is the largest boundary-cell diagonal, cells the number of
	// cells handed over.
	achieved float64
	cells    int
	failed   uint32 // the polygon whose covering ran into the level cap
	// cell is Descend's callback; Cover has none and collects boundary and
	// interior.
	cell               func(cell cellid.ID, refs []Ref) error
	boundary, interior []cellid.ID
}

var scratchPool = sync.Pool{New: func() any { return new(descent) }}

// newDescent takes a descent from the pool, ready for a run of c.
func newDescent(c *Coverer) *descent {
	d := scratchPool.Get().(*descent)
	d.c, d.achieved, d.cells = c, 0, 0
	d.members, d.joined, d.edges, d.stack = d.members[:0], d.joined[:0], d.edges[:0], d.stack[:0]
	d.entries, d.refs = d.entries[:0], d.refs[:0]
	d.boundary, d.interior = d.boundary[:0], d.interior[:0]
	return d
}

// release returns the descent to the pool, keeping nothing of its run's
// polygons or callbacks alive.
func (d *descent) release() {
	clear(d.joined[:cap(d.joined)])
	d.c, d.shapes, d.one[0], d.cell = nil, nil, Shape{}, nil
	scratchPool.Put(d)
}

// Descend covers the shapes in one descent of the grid and hands the merged
// covering — the prefix-free super covering of paper §II — over as it goes:
// it calls cell for each merged cell in ascending id order with its
// references, ascending ids, which cell must not modify or keep, as
// core.Stream asks. It stops at the first error, cell's included, and
// returns it. The shapes' ids must be distinct.
//
// It returns the number of cells handed over and the largest boundary-cell
// diagonal.
func (c *Coverer) Descend(shapes []Shape, cell func(cell cellid.ID, refs []Ref) error) (cells int, achieved float64, err error) {
	d := newDescent(c)
	defer d.release()
	d.shapes, d.cell = shapes, cell
	for i, s := range shapes {
		d.members = append(d.members, member{start: c.startCell(s.Face, s.Poly), shape: int32(i)})
	}
	// Interval order: by first leaf, a cell ahead of the cells inside it.
	// So the polygons starting in any one cell are a run, those starting at
	// the cell itself its head.
	slices.SortFunc(d.members, func(a, b member) int {
		return cmp.Or(cmp.Compare(a.start.RangeMin(), b.start.RangeMin()),
			cmp.Compare(a.start.Level(), b.start.Level()), cmp.Compare(a.shape, b.shape))
	})
	for lo := 0; lo < len(d.members); {
		f, end := d.members[lo].start.Face(), cellid.ID(0)
		hi := lo
		for ; hi < len(d.members) && d.members[hi].start.Face() == f; hi++ {
			end = max(end, d.members[hi].start.RangeMax())
		}
		// The face's first cell: the smallest holding its polygons' start
		// cells.
		top, _ := cellid.CommonAncestor(d.members[lo].start.RangeMin(), end)
		d.entries, d.stack, d.refs = d.entries[:0], d.stack[:0], d.refs[:0]
		if err := d.step(top, grid.CellRect(top), true, geom.Point{}, 0, 0, lo, hi, 0, 0); err != nil {
			if errors.Is(err, ErrPrecision) {
				err = fmt.Errorf("covering polygon %d: %w", d.failed, err)
			}
			return 0, 0, err
		}
		lo = hi
	}
	return d.cells, d.achieved, nil
}

// coverFast is the production covering of one polygon, the descent of a set
// of one from start; its output is identical to coverExhaustive (asserted by
// TestFastMatchesExhaustive).
func (c *Coverer) coverFast(start cellid.ID, poly *geom.Polygon) (*Covering, error) {
	d := newDescent(c)
	defer d.release()
	d.one[0] = Shape{Poly: poly}
	d.shapes = d.one[:]
	d.members = append(d.members, member{start: start})
	if err := d.step(start, grid.CellRect(start), true, geom.Point{}, 0, 0, 0, 1, 0, 0); err != nil {
		return nil, err
	}
	// One exact-size array for both lists: the index keeps coverings (the
	// delta overlay's), so they carry no spare capacity.
	cov := &Covering{AchievedPrecisionMeters: d.achieved}
	cells := make([]cellid.ID, len(d.boundary)+len(d.interior))
	nb := copy(cells, d.boundary)
	copy(cells[nb:], d.interior)
	if nb > 0 {
		cov.Boundary = cells[:nb:nb]
	}
	if nb < len(cells) {
		cov.Interior = cells[nb:]
	}
	return cov, nil
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

// meets reports whether two closed rectangles intersect. Unlike
// geom.Rect.Intersects it does not ask whether either is empty: edge boxes,
// cell rectangles and segment boxes never are.
func meets(a, b geom.Rect) bool {
	return a.Min.X <= b.Max.X && b.Min.X <= a.Max.X &&
		a.Min.Y <= b.Max.Y && b.Min.Y <= a.Max.Y
}

// step covers one step of the descent: cell itself when whole — a face's
// top cell, or a polygon's start cell for Cover — or else its four
// children, which span rect's quadrants. The polygons carried into the
// step, d.entries[eLo:eHi], reach each of its cells, and their reference
// point is refPt: the center of the cell's parent, or of the cell for its
// children. The polygons starting in the step's cells are
// d.members[pLo:pHi], and the references its cells inherit
// d.refs[rLo:rHi], ascending ids.
//
// Every polygon is first classified at every cell of the step, a polygon at
// a time: it misses a cell, stops at it, or goes on below it. Then each
// cell in turn is handed over with the references of the polygons stopping
// at it merged into those it inherits — unless a polygon goes on below it
// or starts below it, and the next step covers its children.
func (d *descent) step(cell cellid.ID, rect geom.Rect, whole bool, refPt geom.Point, eLo, eHi, pLo, pHi, rLo, rHi int) error {
	n := 4
	var cells [4]cellid.ID
	var rects [4]geom.Rect
	var centers [4]geom.Point
	if whole {
		n, cells[0], rects[0], centers[0] = 1, cell, rect, rect.Center()
	} else {
		center := rect.Center()
		cells = cell.Children()
		for k := range rects {
			rects[k] = quadrant(rect, center, k)
			centers[k] = rects[k].Center()
		}
	}
	// The polygons starting at a cell join as fresh entries reaching that
	// cell alone; those starting below cell k are d.members[below[k]:end[k]].
	joinedAt, edgesAt, jLo := len(d.joined), len(d.edges), len(d.entries)
	var below, end [4]int
	for k := 0; k < n; k++ {
		for ; pLo < pHi && d.members[pLo].start == cells[k]; pLo++ {
			e := d.join(d.members[pLo].shape, cells[k], centers[k])
			e.at = uint8(k)
			d.entries = append(d.entries, e)
		}
		below[k] = pLo
		for pLo < pHi && d.members[pLo].start.RangeMin() <= cells[k].RangeMax() {
			pLo++
		}
		end[k] = pLo
	}
	jHi := len(d.entries)

	// Cell k's entries for its children and the references stopping at it
	// go to region k of r slots, above the entries and the references.
	r := eHi - eLo + jHi - jLo
	eBase, rBase := jHi, len(d.refs)
	if cap(d.entries)-eBase < n*r {
		d.entries = slices.Grow(d.entries, n*r)
	}
	if cap(d.refs)-rBase < n*r {
		d.refs = slices.Grow(d.refs, n*r)
	}
	d.entries, d.refs = d.entries[:eBase+n*r], d.refs[:rBase+n*r]
	var goes, stops [4]int
	stack, edges := d.stack, d.edges
	for _, span := range [2][2]int{{eLo, eHi}, {jLo, jHi}} {
		for i := span[0]; i < span[1]; i++ {
			// The fields one by one: the parent stored them so, and a
			// wider load of fields just stored separately stalls.
			e := &d.entries[i]
			ej, elo, ehi, refInside := e.j, e.lo, e.hi, e.inside
			j := &d.joined[ej]
			kLo, kHi, ref := 0, n, refPt
			if e.fresh {
				kLo, kHi, ref = int(e.at), int(e.at)+1, centers[e.at]
			}
			for k := kLo; k < kHi; k++ {
				rect, center := rects[k], centers[k]
				// Narrow the active edge set and detect boundary contact.
				subLo := len(stack)
				crossing := false
				for _, ei := range stack[elo:ehi] {
					ed := &edges[ei]
					if !meets(ed.bbox, rect) {
						continue
					}
					stack = append(stack, ei)
					if !crossing && geom.SegmentIntersectsRect(ed.a, ed.b, rect) {
						crossing = true
					}
				}
				subHi := len(stack)

				// The center's status follows from the reference point by
				// crossing parity over the cell's own active edges: the
				// reference point is a corner of the cell, or its center,
				// so any edge crossing the segment from it to the center
				// meets the cell and is in stack[subLo:subHi].
				keep := false
				if crossing {
					level := cells[k].Level()
					exact := j.exact>>level&1 != 0
					keep = level == int(j.fit)
					if exact || keep && rect.Intersects(j.peak) {
						diag := grid.CellDiagonalMeters(d.c.g, cells[k])
						if exact {
							keep = diag <= d.c.precision
						}
						if keep && diag > d.achieved {
							d.achieved = diag
						}
					}
					if !keep {
						if level >= cellid.MaxLevel {
							return d.levelCap(j, cells[k])
						}
						// It goes on below; the center is the children's
						// reference point.
						inside := d.inside(j, ref, refInside, center, stack[subLo:subHi])
						d.entries[eBase+k*r+goes[k]] = entry{j: ej, lo: int32(subLo), hi: int32(subHi), inside: inside}
						goes[k]++
						continue
					}
				} else {
					// Uniform cell: its status is the center's.
					keep = d.inside(j, ref, refInside, center, stack[subLo:subHi])
				}
				stack = stack[:subLo]
				if keep {
					d.refs[rBase+k*r+stops[k]] = Ref{PolygonID: j.id, Interior: !crossing}
					stops[k]++
				}
			}
		}
	}
	d.stack = stack

	sTop := len(d.stack)
	for k := 0; k < n; k++ {
		stopped := d.refs[rBase+k*r : rBase+k*r+stops[k]]
		sortRefs(stopped)
		split := goes[k] > 0 || below[k] < end[k]
		d.entries, d.stack, d.refs = d.entries[:eBase+n*r], d.stack[:sTop], d.refs[:rBase+n*r]
		cLo, cHi := rLo, rHi
		switch {
		case len(stopped) == 0:
		case rLo == rHi:
			cLo, cHi = rBase+k*r, rBase+k*r+stops[k]
		default:
			cLo = len(d.refs)
			d.refs = mergeRefs(d.refs, d.refs[rLo:rHi], stopped)
			cHi = len(d.refs)
		}
		var err error
		switch {
		case split:
			err = d.step(cells[k], rects[k], false, centers[k], eBase+k*r, eBase+k*r+goes[k], below[k], end[k], cLo, cHi)
		case cLo < cHi:
			err = d.emit(cells[k], d.refs[cLo:cHi])
		}
		if err != nil {
			return err
		}
	}
	d.joined, d.edges = d.joined[:joinedAt], d.edges[:edgesAt]
	return nil
}

// levelCap reports that j's covering cannot fit cell, at the level cap,
// within ε.
func (d *descent) levelCap(j *joined, cell cellid.ID) error {
	d.failed = j.id
	return fmt.Errorf("%w: cell %v at level cap %d has diagonal %.3f m > %.3f m",
		ErrPrecision, cell, cellid.MaxLevel, grid.CellDiagonalMeters(d.c.g, cell), d.c.precision)
}

// quadrant returns child k's rectangle within its parent's rect, whose
// center is center. Child k's quadrant is (iBit<<1)|jBit: bit 1 picks the
// upper half in x, bit 0 in y. Splitting rect there is bit-exact: cell
// corners are multiples of 2⁻³⁰ in [0, 1], so the sums and halvings of
// Center round nothing and each child's rectangle equals
// grid.CellRect(child).
func quadrant(rect geom.Rect, center geom.Point, k int) geom.Rect {
	if k&2 == 0 {
		rect.Max.X = center.X
	} else {
		rect.Min.X = center.X
	}
	if k&1 == 0 {
		rect.Max.Y = center.Y
	} else {
		rect.Min.Y = center.Y
	}
	return rect
}

// join starts shape s at its start cell, whose center is center: it records
// the polygon and pushes its edges, and returns its entry, whose reference
// point is the center.
func (d *descent) join(s int32, start cellid.ID, center geom.Point) entry {
	sh := &d.shapes[s]
	j := joined{poly: sh.Poly, id: sh.ID, parity: canParity(sh.Poly), fit: cellid.MaxLevel + 1}
	rules := d.c.levelRules(start, sh.Poly.Bound())
	for level := start.Level(); level <= cellid.MaxLevel; level++ {
		if rules[level].exact {
			j.exact |= 1 << level
		}
		if rules[level].fits {
			j.fit, j.peak = uint8(level), rules[level].peak
			break
		}
	}
	d.joined = append(d.joined, j)
	lo, first := len(d.stack), len(d.edges)
	d.edges = appendEdges(d.edges, sh.Poly)
	for i := first; i < len(d.edges); i++ {
		d.stack = append(d.stack, int32(i))
	}
	return entry{j: int32(len(d.joined) - 1), lo: int32(lo), hi: int32(len(d.stack)), inside: sh.Poly.ContainsPoint(center), fresh: true}
}

// emit hands a cell of the merged covering over: to Descend's callback, or
// into the one polygon's covering.
func (d *descent) emit(cell cellid.ID, refs []Ref) error {
	d.cells++
	switch {
	case d.cell != nil:
		return d.cell(cell, refs)
	case refs[0].Interior:
		d.interior = append(d.interior, cell)
	default:
		d.boundary = append(d.boundary, cell)
	}
	return nil
}

// sortRefs puts the few references stopping at one cell in id order.
func sortRefs(refs []Ref) {
	for k := 1; k < len(refs); k++ {
		for m := k; m > 0 && refs[m].PolygonID < refs[m-1].PolygonID; m-- {
			refs[m], refs[m-1] = refs[m-1], refs[m]
		}
	}
}

// mergeRefs appends to dst the union of two reference lists in ascending id
// order, which name distinct polygons.
func mergeRefs(dst, a, b []Ref) []Ref {
	for len(a) > 0 && len(b) > 0 {
		if a[0].PolygonID < b[0].PolygonID {
			dst, a = append(dst, a[0]), a[1:]
		} else {
			dst, b = append(dst, b[0]), b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// inside decides whether target is inside j's polygon: by crossing parity
// over the active edges from the reference point where that is sound and
// certain, exactly otherwise. With no active edge there is nothing to cross
// and the target has the reference point's status — every uniform cell of
// the census map at ε = 60 m — which this small, inlined test settles.
func (d *descent) inside(j *joined, refPt geom.Point, refInside bool, target geom.Point, active []int32) bool {
	if j.parity && len(active) == 0 {
		return refInside
	}
	return d.decideInside(j, refPt, refInside, target, active)
}

// decideInside is inside's general case.
func (d *descent) decideInside(j *joined, refPt geom.Point, refInside bool, target geom.Point, active []int32) bool {
	if j.parity {
		if inside, ok := d.parityInside(refPt, refInside, target, active); ok {
			return inside
		}
	}
	return j.poly.ContainsPoint(target)
}

// parityInside decides whether target is inside the polygon given a
// reference point with known status, by counting certified proper crossings
// of the segment refPt→target with the active edges. ok is false when any
// crossing test is ambiguous (caller falls back to the exact test).
func (d *descent) parityInside(refPt geom.Point, refInside bool, target geom.Point, active []int32) (inside, ok bool) {
	if refPt == target {
		return refInside, true
	}
	// An edge whose box the segment's box misses cannot cross it.
	seg := geom.Rect{
		Min: geom.Point{X: min(refPt.X, target.X), Y: min(refPt.Y, target.Y)},
		Max: geom.Point{X: max(refPt.X, target.X), Y: max(refPt.Y, target.Y)},
	}
	crossings := 0
	for _, ei := range active {
		e := &d.edges[ei]
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
