// Package delta implements the mutable layer of a live ACT index: an
// LSM-style overlay holding the cell coverings of recently inserted
// polygons and a tombstone set of removed polygon ids, merged into every
// lookup on top of an immutable base trie.
//
// The design mirrors a log-structured merge tree collapsed to two levels.
// The base trie is the big immutable run: rebuilt only by compaction, it
// serves the overwhelming majority of references. The overlay is the
// memtable: a handful of polygons whose coverings live in their own small
// trie (built with the same supercover merge and core.Build pipeline as the
// base, so the true-hit/candidate split is decided by exactly the same
// rules), plus tombstones filtering removed ids out of base results.
//
// An Overlay is an immutable snapshot: mutations return a new Overlay and
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
// results as long as removed ids are filtered from the base — which is what
// Merge does. Delta references are appended after base references; since
// inserted ids are strictly larger than every base id, per-class id order
// stays ascending, matching what a rebuild would emit.
package delta

import (
	"fmt"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/core"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/geostore"
	"github.com/actindex/act/internal/supercover"
)

// Poly is one polygon living in the delta layer.
type Poly struct {
	// ID is the polygon's index-wide id (assigned at insert, never reused).
	ID uint32
	// Cov is the polygon's cell covering, computed with the index's
	// coverer so true hits and candidates follow the same precision bound
	// as the base.
	Cov *cover.Covering
	// Face is the grid face the polygon was projected onto.
	Face int
	// Geom is the grid-projected geometry for exact refinement; nil on
	// indexes built without a geometry store.
	Geom *geom.Polygon
	// Seq is the mutation sequence number of the insert. Compaction uses
	// it to split the overlay into the part baked into the new base and
	// the residual applied on top.
	Seq uint64
}

// Overlay is an immutable snapshot of the delta layer. New builds one;
// WithInsert and Rebase derive a successor without touching the receiver;
// lookup methods never write to it and are safe for concurrent use. The nil
// *Overlay is the empty overlay.
type Overlay struct {
	fanout int
	// polys holds the live delta polygons in insertion (= ascending id)
	// order; trie indexes their coverings (nil when polys is empty).
	polys []Poly
	trie  *core.Trie
	// tombs maps every removed id — base or delta — to the sequence number
	// of its removal. A removed delta polygon is also absent from polys; the
	// tombstone still matters after a compaction that baked the polygon
	// into the new base before observing the removal.
	tombs map[uint32]uint64
	// geoms indexes the live delta polygons' geometry by id for exact
	// refinement; nil entries mean the index carries no geometry.
	geoms map[uint32]*geom.Polygon
}

// New assembles an overlay snapshot from delta polygons and tombstones,
// constructing the delta trie over the polygons' coverings once — the index
// stages every batch of mutations (one Insert, one Remove, a replayed or
// replicated run of records) on copies and builds its overlay here; a
// rebuild per record of a batch would be quadratic. polys must be in
// insertion (ascending id) order and must not contain polygons whose id is
// tombstoned: a removed delta polygon leaves only its tombstone. Both
// arguments are retained, not copied. Returns nil for the empty overlay, so
// callers' nil fast paths stay accurate.
func New(fanout int, polys []Poly, tombs map[uint32]uint64) (*Overlay, error) {
	if len(polys) == 0 && len(tombs) == 0 {
		return nil, nil
	}
	o := &Overlay{fanout: fanout, polys: polys, tombs: tombs}
	if len(polys) > 0 {
		var scb supercover.Builder
		o.geoms = make(map[uint32]*geom.Polygon, len(polys))
		for _, p := range polys {
			if err := scb.Add(p.ID, p.Cov); err != nil {
				return nil, fmt.Errorf("delta: polygon %d: %w", p.ID, err)
			}
			o.geoms[p.ID] = p.Geom
		}
		trie, err := core.Build(scb.Sort(), core.Config{Fanout: fanout})
		if err != nil {
			return nil, fmt.Errorf("delta: building delta trie: %w", err)
		}
		o.trie = trie
	}
	return o, nil
}

// WithInsert returns a new overlay with p added to the delta layer. The
// receiver may be nil (inserting into a clean index); fanout then sizes
// the new delta trie's nodes and must match the base trie's fanout.
func (o *Overlay) WithInsert(fanout int, p Poly) (*Overlay, error) {
	var polys []Poly
	tombs := map[uint32]uint64(nil)
	if o != nil {
		fanout = o.fanout
		polys = append(polys, o.polys...)
		tombs = o.tombs
	}
	polys = append(polys, p)
	return New(fanout, polys, tombs)
}

// Rebase returns the residual overlay after a compaction that snapshotted
// the index at sequence snapSeq: every insert and tombstone with Seq ≤
// snapSeq is baked into (respectively, excluded from) the new base and is
// dropped; mutations that landed while the compactor ran survive. Returns
// nil when nothing remains — the common case of a quiescent compaction.
func (o *Overlay) Rebase(snapSeq uint64) (*Overlay, error) {
	if o == nil {
		return nil, nil
	}
	var polys []Poly
	for _, p := range o.polys {
		if p.Seq > snapSeq {
			polys = append(polys, p)
		}
	}
	var tombs map[uint32]uint64
	for id, seq := range o.tombs {
		if seq > snapSeq {
			if tombs == nil {
				tombs = make(map[uint32]uint64)
			}
			tombs[id] = seq
		}
	}
	return New(o.fanout, polys, tombs)
}

// NumPolygons returns the number of polygons served from the delta layer.
func (o *Overlay) NumPolygons() int {
	if o == nil {
		return 0
	}
	return len(o.polys)
}

// NumTombstones returns the number of removals pending compaction.
func (o *Overlay) NumTombstones() int {
	if o == nil {
		return 0
	}
	return len(o.tombs)
}

// Pending returns the total pending-mutation count — the quantity measured
// against the compaction threshold.
func (o *Overlay) Pending() int { return o.NumPolygons() + o.NumTombstones() }

// Tombstoned reports whether id has been removed.
func (o *Overlay) Tombstoned(id uint32) bool {
	if o == nil {
		return false
	}
	_, ok := o.tombs[id]
	return ok
}

// HasPolygon reports whether id is currently served from the delta layer.
func (o *Overlay) HasPolygon(id uint32) bool {
	if o == nil {
		return false
	}
	_, ok := o.geoms[id]
	return ok
}

// Merge folds the delta layer into a base-trie lookup result for leaf:
// tombstoned ids are filtered out of res, then the delta trie's references
// for leaf are appended (true hits and candidates routed by the same
// payload class bit as the base). It reports whether res holds any
// reference afterwards — the merged hit/miss verdict, which can differ from
// the base's in both directions. Safe on a nil receiver.
func (o *Overlay) Merge(leaf cellid.ID, res *core.Result) bool {
	if o == nil {
		return res.Total() > 0
	}
	if len(o.tombs) > 0 {
		res.Filter(o.Tombstoned)
	}
	if o.trie != nil {
		o.trie.Lookup(leaf, res)
	}
	return res.Total() > 0
}

// MergeRefs is Merge for the class-carrying AppendRefs path: the base's
// freshly appended dst[from:] suffix is tombstone-filtered and the delta
// references for leaf are appended with their own class bits.
func (o *Overlay) MergeRefs(leaf cellid.ID, dst []core.Match, from int) []core.Match {
	if o == nil {
		return dst
	}
	if len(o.tombs) > 0 {
		kept := dst[:from]
		for _, m := range dst[from:] {
			if !o.Tombstoned(m.ID) {
				kept = append(kept, m)
			}
		}
		dst = kept
	}
	if o.trie != nil {
		dst = o.trie.AppendRefs(leaf, dst)
	}
	return dst
}

// Resolve refines a merged candidate list the way geostore.Store.Resolve
// does, but routing each id to the geometry that owns it: delta ids test
// against the overlay's geometry, everything else against the base store.
// Candidates are expected to be tombstone-filtered already (Merge ran);
// a tombstoned id that slips through resolves against nothing and drops.
// Safe on a nil receiver, where it degenerates to the base store.
func (o *Overlay) Resolve(base *geostore.Store, pt geom.Point, candidates, dst []uint32) []uint32 {
	if o == nil {
		return base.Resolve(pt, candidates, dst)
	}
	for _, id := range candidates {
		if g, ok := o.geoms[id]; ok {
			if g != nil && g.ContainsPointExact(pt) {
				dst = append(dst, id)
			}
			continue
		}
		if !o.Tombstoned(id) && base.Contains(id, pt) {
			dst = append(dst, id)
		}
	}
	return dst
}

// Polys returns the live delta polygons in insertion order. The slice
// aliases internal storage and must not be modified.
func (o *Overlay) Polys() []Poly {
	if o == nil {
		return nil
	}
	return o.polys
}

// Tombstones returns the overlay's removed-id map, keyed to each removal's
// sequence number. The map is internal storage shared with the overlay —
// callers must not modify it; copy before merging (the replication batch
// path does).
func (o *Overlay) Tombstones() map[uint32]uint64 {
	if o == nil {
		return nil
	}
	return o.tombs
}
