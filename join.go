package act

import (
	"context"
	"errors"
	"fmt"

	"github.com/actindex/act/internal/join"
)

// ErrNoGeometry is reported by every Exact-mode read — Lookup and the joins —
// on an index that carries no geometry store (built with
// WithGeometryStore(false), or loaded from an index file without a geometry
// section), before anything is probed.
var ErrNoGeometry = errors.New("act: index has no geometry store, cannot refine candidates")

// JoinMode selects the read semantics of Lookup and the joins.
type JoinMode int

const (
	// Approximate counts true hits and candidates alike; false positives
	// are within the precision bound. This is the paper's headline mode:
	// no refinement phase at all.
	Approximate JoinMode = iota
	// Exact refines candidate hits with point-in-polygon tests; results
	// contain only pairs whose point is truly inside the polygon.
	Exact
)

// String implements fmt.Stringer.
func (m JoinMode) String() string {
	switch m {
	case Approximate:
		return "approximate"
	case Exact:
		return "exact"
	default:
		return fmt.Sprintf("JoinMode(%d)", int(m))
	}
}

// JoinStats reports the outcome of a join run: counts per hit class,
// wall-clock time, and throughput in million points per second.
type JoinStats = join.Stats

// Pair is one join output tuple: Point is the index into the input point
// slice, Polygon the matched polygon id, and Class the certainty of the
// match.
type Pair = join.Pair

// Class labels a join pair with the certainty the index established.
type Class = join.Class

const (
	// TrueHit marks a pair whose point is certainly inside the polygon.
	TrueHit = join.TrueHit
	// Candidate marks a pair within the precision bound of the polygon
	// (in Exact mode: a pair that needed — and passed — refinement).
	Candidate = join.Candidate
)

// runJoin is the one join runner under JoinContext, JoinStreamContext,
// PairsContext and LookupBatch: it captures the index's current epoch once,
// so the mode check and the whole run — every chunk, every worker — see one
// consistent base trie + delta overlay pair, no matter how many mutations
// or compactions land while it streams. newSink receives that epoch's id
// space size, so an id-indexed sink spans every id the run can emit.
func (ix *Index) runJoin(ctx context.Context, points []LatLng, mode JoinMode, threads int, newSink func(idSpace int) join.Sink) (JoinStats, error) {
	ep := ix.live.Load()
	j := &join.ACT{Grid: ix.pl.grid, Trie: ep.trie, Overlay: ep.ov}
	if mode == Exact {
		if ep.store == nil {
			return JoinStats{}, ErrNoGeometry
		}
		j.Store = ep.store
	}
	stats, err := join.RunSinkContext(ctx, j, points, newSink(len(ep.alive)), threads)
	ix.keepMapped()
	return stats, err
}

// JoinContext counts, for every polygon, the points matching it — the
// aggregation the paper's evaluation performs. threads ≤ 0 uses GOMAXPROCS.
// The returned slice is indexed by polygon id and spans every id ever
// assigned, so on a mutated index the slots of removed polygons are
// present and zero. It is a thin wrapper over the streaming engine with a
// counting sink.
//
// In Exact mode, trie lookups deliver true hits directly and only the
// candidate matches are refined against the geometry store with robust
// point-in-polygon tests (bbox pre-filtered, boundary points inside): in
// the returned stats, TrueHits counts pairs resolved without touching
// geometry and CandidateHits pairs that needed — and survived —
// refinement; their ratio is the refinement cost the precision bound buys
// off. Exact mode on an index without a geometry store reports
// ErrNoGeometry.
//
// The engine's workers check ctx before claiming each chunk of points, so a
// cancelled context (a disconnected client, a deadline) aborts the join
// within one chunk per worker instead of running a census-scale input to
// completion. On cancellation the counts cover only the chunks joined so
// far, stats.Points reports how many points those were, and the error is
// ctx.Err(). A cancellation landing after the last chunk was already
// joined is not an error: the join is complete, so the error is nil.
func (ix *Index) JoinContext(ctx context.Context, points []LatLng, mode JoinMode, threads int) ([]uint64, JoinStats, error) {
	var counts []uint64
	stats, err := ix.runJoin(ctx, points, mode, threads, func(idSpace int) join.Sink {
		sink := join.NewCountSink(idSpace)
		counts = sink.Counts // merged into in place, never regrown
		return sink
	})
	return counts, stats, err
}

// JoinStreamContext runs the join and streams every pair to fn as it is
// produced. Delivery is serialized — fn is never invoked concurrently, so
// it may write to an encoder, socket, or other unsynchronized state. With
// threads == 1 pairs arrive in nondecreasing Point order; with more
// workers, order is nondecreasing within each engine chunk but interleaved
// across chunks. threads ≤ 0 uses GOMAXPROCS. Exact mode on an index
// without a geometry store reports ErrNoGeometry.
//
// The context serves streamed joins to clients that may disconnect: cancel
// ctx and the workers stop claiming chunks, fn stops receiving pairs after
// at most one chunk per worker, and the call returns ctx.Err().
func (ix *Index) JoinStreamContext(ctx context.Context, points []LatLng, mode JoinMode, threads int, fn func(Pair)) (JoinStats, error) {
	return ix.runJoin(ctx, points, mode, threads, func(int) join.Sink { return &join.FuncSink{Fn: fn} })
}

// PairsContext materializes the join: every (point, polygon, class) tuple,
// sorted by point index (ties by polygon id), deterministic regardless of
// the thread count. threads ≤ 0 uses GOMAXPROCS. Exact mode on an index
// without a geometry store reports ErrNoGeometry. On cancellation the
// returned pairs cover only the chunks joined before the context fired
// (still sorted and deterministic for a given cut) and the error is
// ctx.Err().
func (ix *Index) PairsContext(ctx context.Context, points []LatLng, mode JoinMode, threads int) ([]Pair, JoinStats, error) {
	sink := &join.PairSink{}
	stats, err := ix.runJoin(ctx, points, mode, threads, func(int) join.Sink { return sink })
	return sink.Pairs, stats, err
}
