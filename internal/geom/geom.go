// Package geom implements the planar computational geometry the covering
// pipeline is built on: polygons with holes, point-in-polygon tests,
// segment/rectangle predicates, and the rectangle↔polygon classification
// that decides whether a grid cell is an interior cell, a boundary cell, or
// outside a polygon.
//
// All coordinates are plain 2D floats. The grid layer projects geographic
// coordinates into a planar (s,t) space before calling into this package, so
// geom itself is agnostic about what the axes mean.
package geom

import (
	"errors"
	"fmt"
	"math"
)

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Dot returns the dot product of p and q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Orient returns a positive value if a→b→c turns counterclockwise, a
// negative value if clockwise, and zero if the three points are collinear.
func Orient(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// onSegment reports whether point p lies on segment ab, assuming the three
// points are collinear.
func onSegment(a, b, p Point) bool {
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}

// SegmentsIntersect reports whether segments ab and cd share at least one
// point, including improper intersections (touching endpoints, overlap).
func SegmentsIntersect(a, b, c, d Point) bool {
	d1 := Orient(c, d, a)
	d2 := Orient(c, d, b)
	d3 := Orient(a, b, c)
	d4 := Orient(a, b, d)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	if d1 == 0 && onSegment(c, d, a) {
		return true
	}
	if d2 == 0 && onSegment(c, d, b) {
		return true
	}
	if d3 == 0 && onSegment(a, b, c) {
		return true
	}
	if d4 == 0 && onSegment(a, b, d) {
		return true
	}
	return false
}

// DistPointSegment returns the distance from p to segment ab.
func DistPointSegment(p, a, b Point) float64 {
	ab := b.Sub(a)
	den := ab.Dot(ab)
	if den == 0 {
		return p.Dist(a)
	}
	t := p.Sub(a).Dot(ab) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return p.Dist(a.Add(ab.Scale(t)))
}

// Rect is an axis-aligned rectangle, closed on all sides.
type Rect struct {
	Min, Max Point
}

// RectFromPoints returns the bounding rectangle of the given points.
func RectFromPoints(pts ...Point) Rect {
	if len(pts) == 0 {
		return Rect{Min: Point{1, 1}, Max: Point{-1, -1}}
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = min(r.Min.X, p.X)
		r.Min.Y = min(r.Min.Y, p.Y)
		r.Max.X = max(r.Max.X, p.X)
		r.Max.Y = max(r.Max.Y, p.Y)
	}
	return r
}

// IsEmpty reports whether the rectangle contains no points.
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// Contains reports whether p lies in the closed rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether o lies entirely within r.
func (r Rect) ContainsRect(o Rect) bool {
	return o.Min.X >= r.Min.X && o.Max.X <= r.Max.X &&
		o.Min.Y >= r.Min.Y && o.Max.Y <= r.Max.Y
}

// Intersects reports whether the two closed rectangles share a point.
func (r Rect) Intersects(o Rect) bool {
	if r.IsEmpty() || o.IsEmpty() {
		return false
	}
	return r.Min.X <= o.Max.X && o.Min.X <= r.Max.X &&
		r.Min.Y <= o.Max.Y && o.Min.Y <= r.Max.Y
}

// Center returns the midpoint of the rectangle.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Vertices returns the four corners in counterclockwise order starting at
// Min.
func (r Rect) Vertices() [4]Point {
	return [4]Point{
		r.Min,
		{r.Max.X, r.Min.Y},
		r.Max,
		{r.Min.X, r.Max.Y},
	}
}

// Union returns the smallest rectangle containing r and o.
func (r Rect) Union(o Rect) Rect {
	if r.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, o.Min.X), math.Min(r.Min.Y, o.Min.Y)},
		Max: Point{math.Max(r.Max.X, o.Max.X), math.Max(r.Max.Y, o.Max.Y)},
	}
}

// Area returns the area of the rectangle (0 if empty).
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.Max.X - r.Min.X) * (r.Max.Y - r.Min.Y)
}

// SegmentIntersectsRect reports whether segment ab shares at least one point
// with the closed rectangle r. Segments lying entirely inside r count as
// intersecting.
func SegmentIntersectsRect(a, b Point, r Rect) bool {
	if r.Contains(a) || r.Contains(b) {
		return true
	}
	// Quick rejection: segment bounding box vs rect.
	if max(a.X, b.X) < r.Min.X || min(a.X, b.X) > r.Max.X ||
		max(a.Y, b.Y) < r.Min.Y || min(a.Y, b.Y) > r.Max.Y {
		return false
	}
	v := r.Vertices()
	for k := 0; k < 4; k++ {
		if SegmentsIntersect(a, b, v[k], v[(k+1)%4]) {
			return true
		}
	}
	return false
}

// Ring is a simple closed polyline. The closing edge from the last vertex
// back to the first is implicit. Rings must have at least three vertices.
type Ring []Point

// ErrInvalidRing is returned when a ring has fewer than three vertices or a
// non-finite coordinate.
var ErrInvalidRing = errors.New("geom: ring needs at least 3 finite vertices")

// Validate checks the structural invariants of the ring.
func (rg Ring) Validate() error {
	if len(rg) < 3 {
		return fmt.Errorf("%w (got %d vertices)", ErrInvalidRing, len(rg))
	}
	for _, p := range rg {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("%w (non-finite vertex %v)", ErrInvalidRing, p)
		}
	}
	return nil
}

// Bound returns the bounding rectangle of the ring.
func (rg Ring) Bound() Rect { return RectFromPoints(rg...) }

// SignedArea returns the signed area of the ring: positive when the
// vertices wind counterclockwise.
func (rg Ring) SignedArea() float64 {
	var s float64
	for i, p := range rg {
		q := rg[(i+1)%len(rg)]
		s += p.Cross(q)
	}
	return s / 2
}

// Centroid returns the area centroid of the ring. For a degenerate
// (zero-area) ring it returns the vertex average.
func (rg Ring) Centroid() Point {
	var cx, cy, a float64
	for i, p := range rg {
		q := rg[(i+1)%len(rg)]
		w := p.Cross(q)
		cx += (p.X + q.X) * w
		cy += (p.Y + q.Y) * w
		a += w
	}
	if a == 0 {
		var sx, sy float64
		for _, p := range rg {
			sx += p.X
			sy += p.Y
		}
		n := float64(len(rg))
		return Point{sx / n, sy / n}
	}
	return Point{cx / (3 * a), cy / (3 * a)}
}

// ContainsPoint reports whether p lies inside the ring using the even-odd
// (ray casting) rule. Points exactly on the boundary may be classified
// either way; the covering machinery never depends on boundary points being
// classified consistently because boundary cells subsume both outcomes.
func (rg Ring) ContainsPoint(p Point) bool {
	inside := false
	n := len(rg)
	j := n - 1
	for i := 0; i < n; i++ {
		pi, pj := rg[i], rg[j]
		if (pi.Y > p.Y) != (pj.Y > p.Y) &&
			p.X < (pj.X-pi.X)*(p.Y-pi.Y)/(pj.Y-pi.Y)+pi.X {
			inside = !inside
		}
		j = i
	}
	return inside
}

// edges calls f for every edge of the ring.
func (rg Ring) edges(f func(a, b Point) bool) bool {
	n := len(rg)
	for i := 0; i < n; i++ {
		if !f(rg[i], rg[(i+1)%n]) {
			return false
		}
	}
	return true
}

// IntersectsRect reports whether any edge of the ring touches the closed
// rectangle r.
func (rg Ring) IntersectsRect(r Rect) bool {
	return !rg.edges(func(a, b Point) bool {
		return !SegmentIntersectsRect(a, b, r)
	})
}

// Polygon is a polygon with zero or more holes. The orientation of the
// rings is not significant; containment uses the even-odd rule per ring.
type Polygon struct {
	Outer Ring
	Holes []Ring

	bound    Rect
	boundSet bool
}

// NewPolygon constructs a polygon and validates its rings.
func NewPolygon(outer Ring, holes ...Ring) (*Polygon, error) {
	p := &Polygon{Outer: outer, Holes: holes}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.Bound() // precompute
	return p, nil
}

// Validate checks the structural invariants of all rings.
func (pg *Polygon) Validate() error {
	if err := pg.Outer.Validate(); err != nil {
		return fmt.Errorf("outer ring: %w", err)
	}
	for i, h := range pg.Holes {
		if err := h.Validate(); err != nil {
			return fmt.Errorf("hole %d: %w", i, err)
		}
	}
	return nil
}

// Bound returns (and caches) the bounding rectangle of the outer ring.
func (pg *Polygon) Bound() Rect {
	if !pg.boundSet {
		pg.bound = pg.Outer.Bound()
		pg.boundSet = true
	}
	return pg.bound
}

// Area returns the area of the polygon: outer area minus hole areas
// (absolute values).
func (pg *Polygon) Area() float64 {
	a := math.Abs(pg.Outer.SignedArea())
	for _, h := range pg.Holes {
		a -= math.Abs(h.SignedArea())
	}
	return a
}

// NumVertices returns the total vertex count across all rings.
func (pg *Polygon) NumVertices() int {
	n := len(pg.Outer)
	for _, h := range pg.Holes {
		n += len(h)
	}
	return n
}

// ContainsPoint reports whether p is inside the polygon: inside the outer
// ring and outside every hole.
func (pg *Polygon) ContainsPoint(p Point) bool {
	if !pg.Bound().Contains(p) {
		return false
	}
	if !pg.Outer.ContainsPoint(p) {
		return false
	}
	for _, h := range pg.Holes {
		if h.ContainsPoint(p) {
			return false
		}
	}
	return true
}

// Relation classifies a rectangle against a polygon.
type Relation int

const (
	// Disjoint means the rectangle shares no point with the polygon.
	Disjoint Relation = iota
	// Intersects means the rectangle overlaps the polygon boundary (or
	// contains the whole polygon): points in the rectangle may be inside
	// or outside.
	Intersects
	// Contained means the rectangle lies entirely in the polygon interior:
	// every point in the rectangle is inside the polygon.
	Contained
)

// String implements fmt.Stringer.
func (r Relation) String() string {
	switch r {
	case Disjoint:
		return "Disjoint"
	case Intersects:
		return "Intersects"
	case Contained:
		return "Contained"
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// RelateRect classifies rect r against the polygon. The result is exact up
// to floating-point rounding in the orientation predicates:
//
//   - Disjoint: no point of r is inside the polygon,
//   - Contained: every point of r is inside the polygon,
//   - Intersects: anything else (some polygon edge touches r, or r contains
//     the polygon).
func (pg *Polygon) RelateRect(r Rect) Relation {
	if !pg.Bound().Intersects(r) {
		return Disjoint
	}
	// Any boundary edge touching the rect makes the rect ambiguous.
	if pg.Outer.IntersectsRect(r) {
		return Intersects
	}
	for _, h := range pg.Holes {
		if h.IntersectsRect(r) {
			return Intersects
		}
	}
	// No edge touches the rect. The rect is now entirely inside the outer
	// ring, entirely outside it, or the polygon is entirely inside the
	// rect. In the last case some outer-ring vertex lies inside r.
	if r.Contains(pg.Outer[0]) {
		return Intersects
	}
	if !pg.Outer.ContainsPoint(r.Center()) {
		return Disjoint
	}
	// Inside the outer ring. A hole could still be nested inside the rect
	// without its edges touching the rect.
	for _, h := range pg.Holes {
		if h.ContainsPoint(r.Center()) {
			return Disjoint // entirely within a hole
		}
		if r.Contains(h[0]) {
			return Intersects // hole nested inside the rect
		}
	}
	return Contained
}

// Distance returns the distance from p to the polygon: 0 if p is inside,
// otherwise the distance to the nearest boundary edge (outer or hole).
func (pg *Polygon) Distance(p Point) float64 {
	if pg.ContainsPoint(p) {
		return 0
	}
	return pg.BoundaryDistance(p)
}

// BoundaryDistance returns the distance from p to the nearest boundary edge
// regardless of whether p is inside.
func (pg *Polygon) BoundaryDistance(p Point) float64 {
	best := math.Inf(1)
	measure := func(a, b Point) bool {
		if d := DistPointSegment(p, a, b); d < best {
			best = d
		}
		return true
	}
	pg.Outer.edges(measure)
	for _, h := range pg.Holes {
		h.edges(measure)
	}
	return best
}
