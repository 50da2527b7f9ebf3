// Package geostore holds the exact polygon geometry behind an ACT index: the
// grid-projected rings of every indexed polygon, addressable by polygon id,
// with cached bounding boxes pre-filtering every containment test and a
// lazily built R*-tree backing store-wide point stabs.
//
// The trie answers a lookup with true hits (certainly inside) and candidates
// (inside or within the precision bound). The geometry store closes the
// paper's filter-and-refine loop: Resolve keeps exactly the candidates whose
// point is really inside, turning an approximate result into an exact one.
// ScanPoint is the independent brute-force path over the same geometry — an
// R-tree stab plus exact point-in-polygon per stabbed id — used as ground
// truth by the parity property tests.
//
// All predicates use the closed-polygon convention of
// geom.Polygon.ContainsPointExact: ring boundaries belong to the polygon.
package geostore

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/rtree"
)

// Store is an immutable geometry store. Build one with New, NewSparse, or
// Read; a built store is safe for concurrent use.
//
// A store built with NewSparse may contain holes: nil slots for polygon ids
// that were removed by the live-mutation layer before the last compaction.
// Every predicate treats a hole as "contains nothing", so a tombstoned id
// that escaped filtering can never produce a match.
type Store struct {
	polys []*geom.Polygon
	// faces holds the grid face each polygon was projected onto, by id; nil
	// when unknown (a store built by New, or read from a version 1 section).
	faces []uint8
	// tree indexes the polygon bounding boxes for store-wide point stabs.
	// Candidate resolution never needs it (trie candidates are pre-located,
	// per-id cached-bound checks win on short lists), so it is built lazily
	// on the first ScanPoint and serving-only processes never pay for it.
	tree atomic.Pointer[rtree.Tree]
}

// ErrNilPolygon is returned by New when a polygon slot is nil.
var ErrNilPolygon = errors.New("geostore: nil polygon")

// New builds a store over the polygon slice; ids in every query are indices
// into it. The slice is retained, not copied. Nil slots are rejected — the
// static build pipeline has a geometry for every id; stores with holes come
// only from compaction, through NewSparse.
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

// rtreeLazy returns the bbox R-tree, building it on first use. Concurrent
// first calls may each build one; the CAS keeps a single winner and the
// losers' work is discarded — acceptable for a cold, test/oracle-dominated
// path.
func (s *Store) rtreeLazy() *rtree.Tree {
	if t := s.tree.Load(); t != nil {
		return t
	}
	t, err := rtree.New(rtree.DefaultMaxEntries)
	if err != nil {
		panic(err) // unreachable: DefaultMaxEntries is a valid constant
	}
	for i, p := range s.polys {
		if p == nil {
			continue // hole: removed id
		}
		t.Insert(p.Bound(), uint32(i))
	}
	s.tree.CompareAndSwap(nil, t)
	return s.tree.Load()
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
// with a reused dst the call is allocation-free. Candidate lists come from
// trie lookups, so they are short — per-id box checks beat an R-tree
// descent here, while ScanPoint uses the tree for store-wide stabs.
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

// ScanPoint appends to buf the ids of every polygon exactly containing pt —
// an R-tree bounding-box stab refined with exact point-in-polygon tests, the
// classical filter-and-refine join without any trie involvement. It is the
// ground-truth oracle the parity property tests compare the trie-driven
// exact join against.
func (s *Store) ScanPoint(pt geom.Point, buf []uint32) []uint32 {
	n := len(buf)
	stabbed := s.rtreeLazy().QueryPoint(pt, buf)
	// Refine the stabbed suffix in place: every kept id was appended by the
	// stab, so the write cursor never overtakes the read cursor.
	out := stabbed[:n]
	for _, id := range stabbed[n:] {
		if s.polys[id].ContainsPointExact(pt) {
			out = append(out, id)
		}
	}
	return out
}

// MemoryBytes estimates the store footprint: ring vertices, plus the R-tree
// when it has been materialized.
func (s *Store) MemoryBytes() int64 {
	var total int64
	for _, p := range s.polys {
		if p == nil {
			continue
		}
		total += int64(p.NumVertices())*16 + 64
	}
	if t := s.tree.Load(); t != nil {
		total += t.MemoryBytes()
	}
	return total
}
