// Package grid defines the quadtree-based hierarchical grids that translate
// geographic coordinates into cell ids and back.
//
// The paper builds on Google S2 but notes that the approach "works with any
// other quadtree-based hierarchical grid where each quadtree node corresponds
// to a geographical area". This package makes that pluggability concrete: a
// Grid maps geographic coordinates into the planar (s,t) unit square of one
// of its root faces, and all covering geometry then runs in that plane,
// where every grid cell is an axis-aligned square.
//
// Two grids are provided:
//
//   - Planar: a single root face spanning the whole world under the
//     equirectangular projection. Simple and robust; cells shrink in ground
//     width towards the poles.
//   - CubeFace: six root faces of a cube inflated onto the sphere using the
//     S2 quadratic s↔u transform, which keeps cell areas within a small
//     constant factor of each other worldwide.
//
// Because points and polygons pass through the same projection, containment
// decisions are self-consistent: a query point is reported inside a polygon
// exactly when its (s,t) image is inside the polygon's (s,t) image.
package grid

import (
	"fmt"
	"math"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/geom"
)

// Grid projects geographic coordinates into the unit square of a root face.
type Grid interface {
	// Name identifies the grid in diagnostics and benchmarks.
	Name() string
	// NumFaces returns the number of root cells (1 for Planar, 6 for
	// CubeFace).
	NumFaces() int
	// Project maps a geographic coordinate to its face and the (s,t)
	// position within that face's unit square.
	Project(ll geo.LatLng) (face int, st geom.Point)
	// Unproject maps a face-local (s,t) position back to geographic
	// coordinates. It is the inverse of Project up to floating-point
	// rounding for positions strictly inside the face.
	Unproject(face int, st geom.Point) geo.LatLng
}

// PointToCell returns the cell at the given level containing the coordinate.
func PointToCell(g Grid, ll geo.LatLng, level int) cellid.ID {
	face, st := g.Project(ll)
	return cellid.FromFaceIJ(face, stToIJ(st.X), stToIJ(st.Y)).Parent(level)
}

// LeafCell returns the leaf cell containing the coordinate. This is the
// query-side hot path: one projection and one Morton interleave.
func LeafCell(g Grid, ll geo.LatLng) cellid.ID {
	face, st := g.Project(ll)
	return cellid.FromFaceIJ(face, stToIJ(st.X), stToIJ(st.Y))
}

// stToIJ converts an (s or t) coordinate in [0,1] to a leaf-cell index.
// Plain truncation equals floor for the non-negative inputs grids produce;
// negative strays (points outside the face from rounding) clamp to 0.
func stToIJ(s float64) int {
	i := int(s * cellid.MaxSize)
	if i < 0 {
		return 0
	}
	if i >= cellid.MaxSize {
		return cellid.MaxSize - 1
	}
	return i
}

// CellRect returns the (s,t) rectangle of the cell within its face.
func CellRect(id cellid.ID) geom.Rect {
	_, i, j, level := id.ToFaceIJ()
	size := 1 << uint(cellid.MaxLevel-level)
	inv := 1.0 / float64(cellid.MaxSize)
	return geom.Rect{
		Min: geom.Point{X: float64(i) * inv, Y: float64(j) * inv},
		Max: geom.Point{X: float64(i+size) * inv, Y: float64(j+size) * inv},
	}
}

// CellCenter returns the geographic center of the cell.
func CellCenter(g Grid, id cellid.ID) geo.LatLng {
	return g.Unproject(id.Face(), CellRect(id).Center())
}

// CellDiagonalMeters returns the great-circle distance between the two
// (s,t)-diagonal corners of the cell. This is the quantity the precision
// bound constrains: any point in a cell is within this distance of any
// other point in the cell (up to the projection's edge curvature, which is
// negligible at the levels where precision bounds bite).
func CellDiagonalMeters(g Grid, id cellid.ID) float64 {
	face := id.Face()
	r := CellRect(id)
	a := g.Unproject(face, r.Min)
	b := g.Unproject(face, r.Max)
	return geo.DistanceMeters(a, b)
}

// diagonalNoise bounds, relatively, how far CellDiagonalMeters strays from the
// exact diagonal: the haversine subtracts corner coordinates that agree in
// all but their last bits, which leaves an error of a few nanometers, 1e-7
// of a leaf cell's two centimeters.
const diagonalNoise = 1e-6

// CellDiagonalBand bounds CellDiagonalMeters over the cells of one level
// that touch the rectangle r of a face, so that a caller descending over r
// can decide "diagonal ≤ ε" for a whole level with one comparison: every
// such cell's diagonal lies in [lo, hi], and those with the largest diagonal
// touch peak, a part of r.
//
// Only Planar has a band narrower than (0, +Inf): its cells are lat/lng
// rectangles of one size per level, whose diagonal depends on the row alone
// and shrinks with the row's distance from the equator. When rows are so
// close to the equator, or so thin, that the diagonals of neighbours differ
// by less than the noise of computing them, the largest computed diagonal
// may lie just outside peak, and is then within that noise of the largest
// inside.
func CellDiagonalBand(g Grid, face int, r geom.Rect, level int) (lo, hi float64, peak geom.Rect) {
	if _, ok := g.(Planar); !ok || level == 0 {
		return 0, math.Inf(1), r
	}
	rows := 1 << uint(level)
	// One row of slack on either side: a cell that touches r's edge from
	// outside touches r.
	first := max(stToIJ(r.Min.Y)>>uint(cellid.MaxLevel-level)-1, 0)
	last := min(stToIJ(r.Max.Y)>>uint(cellid.MaxLevel-level)+1, rows-1)
	// The equator is the edge between rows rows/2-1 and rows/2, which
	// mirror each other.
	near := min(max(rows/2, first), last)
	far := first
	if last-rows/2 > rows/2-1-first {
		far = last
	}
	column := stToIJ(r.Min.X)
	diagonal := func(row int) float64 {
		leaf := cellid.FromFaceIJ(face, column, row<<uint(cellid.MaxLevel-level))
		return CellDiagonalMeters(g, leaf.Parent(level))
	}
	peak = r
	peak.Min.Y = max(r.Min.Y, float64(near-1)/float64(rows))
	peak.Max.Y = min(r.Max.Y, float64(near+2)/float64(rows))
	return diagonal(far) * (1 - diagonalNoise), diagonal(near) * (1 + diagonalNoise), peak
}

// ProjectPolygon projects a geographic polygon onto a single face of the
// grid, yielding the planar polygon the covering machinery operates on.
// Polygon edges are interpreted as straight lines in (s,t) space — the same
// interpretation lookups use — so the result is exact for the join's
// semantics. It returns an error if the polygon's vertices span more than
// one face (only possible on multi-face grids; city-scale data never does).
func ProjectPolygon(g Grid, p *geo.Polygon) (face int, poly *geom.Polygon, err error) {
	if err := p.Validate(); err != nil {
		return 0, nil, err
	}
	projectRing := func(ring []geo.LatLng, wantFace int, first bool) (geom.Ring, int, error) {
		out := make(geom.Ring, len(ring))
		for i, v := range ring {
			f, st := g.Project(v)
			if first && i == 0 {
				wantFace = f
			} else if f != wantFace {
				return nil, 0, fmt.Errorf("grid %s: polygon spans faces %d and %d; %w",
					g.Name(), wantFace, f, ErrMultiFace)
			}
			out[i] = st
		}
		return out, wantFace, nil
	}

	outer, face, err := projectRing(p.Outer, 0, true)
	if err != nil {
		return 0, nil, err
	}
	holes := make([]geom.Ring, 0, len(p.Holes))
	for _, h := range p.Holes {
		hr, _, err := projectRing(h, face, false)
		if err != nil {
			return 0, nil, err
		}
		holes = append(holes, hr)
	}
	poly, err = geom.NewPolygon(outer, holes...)
	if err != nil {
		return 0, nil, err
	}
	return face, poly, nil
}

// ErrMultiFace is reported when a polygon crosses root-face boundaries of a
// multi-face grid.
var ErrMultiFace = fmt.Errorf("polygon spans multiple grid faces")
