// Package delta implements the mutable layer of a live ACT index: an
// overlay trie over the cell coverings of the polygons inserted since the
// base trie was built, merged into every lookup on top of that immutable
// base.
//
// The design follows a log-structured merge tree collapsed to two levels
// (O'Neil et al., "The Log-Structured Merge-Tree", Acta Informatica 1996).
// The base trie is the big immutable run: rebuilt only by compaction, it
// serves the overwhelming majority of references. The overlay is the
// memtable: the coverings of every insert since the base in their own small
// trie, built with the same supercover merge and core.Build pipeline as the
// base, so the true-hit/candidate split is decided by exactly the same
// rules. Unlike an LSM tree it keeps no tombstones: ids are never reused, so
// the index's live-id set records every removal, and the overlay filters
// base and delta references through it. A removed delta polygon stays in
// the trie until compaction; a removal never rebuilds the trie. Geometry
// lives in the index's store, not here.
//
// An Overlay is an immutable snapshot: derivations return a new Overlay and
// never modify the receiver, so a reader that picked up an overlay pointer
// can keep using it without synchronization while writers publish
// successors. All lookup-side methods are nil-receiver-safe — a nil
// *Overlay is the empty overlay — so unmutated indexes pay a single nil
// check on the hot path.
//
// Merge semantics, chosen so that base+overlay is result-identical to a
// from-scratch rebuild over the surviving polygon set: polygon coverings
// are independent of one another (the supercover merge dedupes references
// only within a polygon), so the reference set a leaf cell matches in a
// full rebuild is exactly the union of the per-polygon matches. Splitting
// the polygons between a base trie and a delta trie therefore preserves
// results as long as removed ids are filtered out — which is what Merge
// does. Delta references are appended after base references; since
// inserted ids are strictly larger than every base id, per-class id order
// stays ascending, matching what a rebuild would emit.
package delta

import (
	"fmt"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/core"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/supercover"
)

// Poly is one polygon inserted into the delta layer.
type Poly struct {
	// ID is the polygon's index-wide id (assigned at insert, never reused).
	ID uint32
	// Cov is the polygon's cell covering, computed with the index's
	// coverer so true hits and candidates follow the same precision bound
	// as the base.
	Cov *cover.Covering
	// Geom is ignored: the index's geometry store holds every polygon's
	// geometry.
	//
	// Deprecated: the overlay keeps no geometry; only callers outside the
	// index still set it.
	Geom *geom.Polygon
	// Seq is the mutation sequence number of the insert, as the log
	// recorded it: a replayed and a replicated index hold equal overlays.
	// (Compaction splits its residual off by id, not by Seq.)
	Seq uint64
}

// Overlay is an immutable snapshot of the delta layer, safe for concurrent
// use. New builds one; WithInsert and WithAlive derive a successor without
// touching the receiver. The nil *Overlay is the empty overlay.
type Overlay struct {
	// polys holds every insert since the base, removed ones included, in
	// insertion (= ascending id) order; trie indexes their coverings (nil
	// when polys is empty).
	polys []Poly
	trie  *core.Trie
	// alive is the index's live-id set that every merged reference is
	// filtered through; nil when nothing the base or polys references has
	// been removed.
	alive []bool
}

// New assembles an overlay snapshot over polys, constructing the delta trie
// over their coverings once — the index stages every batch of mutations
// (one Insert, a replayed or replicated run of records) and builds its
// overlay here; a rebuild per record of a batch would be quadratic. polys
// must be in insertion (ascending id) order; alive must cover every id the
// base or polys references, or be nil when none of them has been removed.
// Both slices are retained, not copied. Returns nil for the empty overlay,
// so callers' nil fast paths stay accurate.
func New(fanout int, polys []Poly, alive []bool) (*Overlay, error) {
	if len(polys) == 0 && alive == nil {
		return nil, nil
	}
	o := &Overlay{polys: polys, alive: alive}
	if len(polys) > 0 {
		var scb supercover.Builder
		for _, p := range polys {
			if err := scb.Add(p.ID, p.Cov); err != nil {
				return nil, fmt.Errorf("delta: polygon %d: %w", p.ID, err)
			}
		}
		trie, err := core.Build(scb.Sort(), core.Config{Fanout: fanout})
		if err != nil {
			return nil, fmt.Errorf("delta: building delta trie: %w", err)
		}
		o.trie = trie
	}
	return o, nil
}

// WithInsert returns a new overlay with p added to the delta layer, keeping
// the receiver's live-id set. The receiver may be nil (inserting into a
// clean index); fanout sizes the new delta trie's nodes and must match the
// base trie's fanout.
func (o *Overlay) WithInsert(fanout int, p Poly) (*Overlay, error) {
	if o == nil {
		return New(fanout, []Poly{p}, nil)
	}
	return New(fanout, append(o.polys[:len(o.polys):len(o.polys)], p), o.alive)
}

// WithAlive returns an overlay over the receiver's polygons that filters
// through alive instead, sharing the receiver's trie: a batch of removals
// publishes a new live-id set without rebuilding anything. Safe on a nil
// receiver.
func (o *Overlay) WithAlive(alive []bool) *Overlay {
	if o == nil {
		if alive == nil {
			return nil
		}
		return &Overlay{alive: alive}
	}
	return &Overlay{polys: o.polys, trie: o.trie, alive: alive}
}

// NumPolygons returns the number of polygons inserted since the base,
// removed ones included.
func (o *Overlay) NumPolygons() int {
	if o == nil {
		return 0
	}
	return len(o.polys)
}

// Polys returns the polygons inserted since the base, removed ones
// included, in insertion order. The slice aliases internal storage and must
// not be modified.
func (o *Overlay) Polys() []Poly {
	if o == nil {
		return nil
	}
	return o.polys
}

// removed reports whether id is not in the live-id set.
func (o *Overlay) removed(id uint32) bool { return !o.alive[id] }

// Merge folds the delta layer into a base-trie lookup result for leaf: the
// delta trie's references for leaf are appended (true hits and candidates
// routed by the same payload class bit as the base), then removed ids are
// filtered out of the whole result. It reports whether res holds any
// reference afterwards — the merged hit/miss verdict, which can differ from
// the base's in both directions. Safe on a nil receiver.
func (o *Overlay) Merge(leaf cellid.ID, res *core.Result) bool {
	if o == nil {
		return res.Total() > 0
	}
	if o.trie != nil {
		o.trie.Lookup(leaf, res)
	}
	if o.alive != nil {
		res.Filter(o.removed)
	}
	return res.Total() > 0
}
