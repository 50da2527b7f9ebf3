// Package geostore holds the exact polygon geometry behind an ACT index: the
// grid-projected rings of every indexed polygon, addressable by polygon id,
// with cached bounding boxes pre-filtering every containment test.
//
// The trie answers a lookup with true hits (certainly inside) and candidates
// (inside or within the precision bound). The geometry store closes the
// paper's filter-and-refine loop: Resolve keeps exactly the candidates whose
// point is really inside, turning an approximate result into an exact one.
// Every question comes with a candidate list, because the trie already
// located the point, so the store keeps no spatial index of its own.
//
// All predicates use the closed-polygon convention of
// geom.Polygon.ContainsPointExact: ring boundaries belong to the polygon.
package geostore

import (
	"errors"
	"fmt"

	"github.com/actindex/act/internal/geom"
)

// Store is an immutable geometry store. Build one with New, NewSparse, or
// Read; a built store is safe for concurrent use.
//
// A store built with NewSparse may contain holes: nil slots for polygon ids
// that were removed by the live-mutation layer before the last compaction.
// Every predicate treats a hole as "contains nothing", so a removed id
// that escaped filtering can never produce a match.
type Store struct {
	polys []*geom.Polygon
	// faces holds the grid face each polygon was projected onto, by id; nil
	// when unknown (a store built by New).
	faces []uint8
}

// ErrNilPolygon is returned by New when a polygon slot is nil.
var ErrNilPolygon = errors.New("geostore: nil polygon")

// New builds a store over the polygon slice; ids in every query are indices
// into it. The slice is retained, not copied. Nil slots are rejected — the
// static build pipeline has a geometry for every id; stores with holes come
// only from the live-mutation layer, through NewSparse.
func New(polys []*geom.Polygon) (*Store, error) {
	for i, p := range polys {
		if p == nil {
			return nil, fmt.Errorf("%w: id %d", ErrNilPolygon, i)
		}
	}
	return &Store{polys: polys}, nil
}

// NewSparse builds a store over an id-indexed polygon slice that may
// contain nil slots (holes left by removed polygons), and the grid face of
// each polygon by id (nil: unknown). It backs every index, whose id space
// keeps the original ids stable across compactions instead of renumbering.
// Both slices are retained, not copied.
func NewSparse(polys []*geom.Polygon, faces []uint8) *Store {
	return &Store{polys: polys, faces: faces}
}

// Slots returns copies of the store's id-indexed geometry and face slices,
// with room for grow more ids: the makings of a successor store, to be
// edited and handed to NewSparse, that leave the receiver untouched.
func (s *Store) Slots(grow int) ([]*geom.Polygon, []uint8) {
	return append(make([]*geom.Polygon, 0, len(s.polys)+grow), s.polys...),
		append(make([]uint8, 0, len(s.faces)+grow), s.faces...)
}

// NumPolygons returns the number of stored polygons.
func (s *Store) NumPolygons() int { return len(s.polys) }

// Polygon returns the geometry of the given id, or nil when out of range.
func (s *Store) Polygon(id uint32) *geom.Polygon {
	if int(id) >= len(s.polys) {
		return nil
	}
	return s.polys[id]
}

// Face returns the grid face polygon id was projected onto. ok is false
// when the id is out of range or a hole, or the store does not know its
// faces.
func (s *Store) Face(id uint32) (face int, ok bool) {
	if s.faces == nil || s.Polygon(id) == nil {
		return 0, false
	}
	return int(s.faces[id]), true
}

// Contains reports whether pt is inside the closed polygon with the given
// id. Out-of-range ids report false.
func (s *Store) Contains(id uint32, pt geom.Point) bool {
	if int(id) >= len(s.polys) || s.polys[id] == nil {
		return false
	}
	return s.polys[id].ContainsPointExact(pt)
}

// Resolve refines a candidate list: it appends to dst the ids from
// candidates whose polygon exactly contains pt, and returns the extended
// slice. Each test starts with the polygon's cached bounding box (inside
// ContainsPointExact), which rejects most losers before any ring walk runs;
// with a reused dst the call is allocation-free. dst may be candidates[:0]:
// the survivors are then filtered in place, in order, because each is
// written at or before the position it was read from (the exact join
// refines its lookup result this way). Candidate lists come from trie
// lookups, so they are short — per-id box checks beat any spatial index
// descent here.
func (s *Store) Resolve(pt geom.Point, candidates []uint32, dst []uint32) []uint32 {
	for _, id := range candidates {
		if int(id) >= len(s.polys) || s.polys[id] == nil {
			continue
		}
		if s.polys[id].ContainsPointExact(pt) {
			dst = append(dst, id)
		}
	}
	return dst
}

// MemoryBytes estimates the store footprint: ring vertices plus a fixed
// per-polygon overhead.
func (s *Store) MemoryBytes() int64 {
	var total int64
	for _, p := range s.polys {
		if p == nil {
			continue
		}
		total += int64(p.NumVertices())*16 + 64
	}
	return total
}
