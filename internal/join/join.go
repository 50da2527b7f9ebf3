// Package join implements the streaming point-in-polygon-set join engine.
// Two joiners reproduce the paper's evaluation: ACT, the trie lookup per
// point, and RTree, the paper's baseline of MBR stabbing (§III). Each is an
// approximate join with an optional refinement phase: given geometry (ACT's
// Store, RTree's Polygons) it tests the points' candidates, and only those,
// with exact point-in-polygon tests, which makes it the exact join. A
// parallel driver shards a point stream over worker goroutines (Figure 4).
//
// Output is pluggable: joiners emit (point, polygon, class) pairs into a
// Sink, so one executor serves per-polygon aggregation (CountSink),
// materialized joins (PairSink), streaming consumers (FuncSink), and
// per-point lookup batches (ResultSink).
//
// ACT's two modes share one probe kernel (Scratch.probe): each chunk's
// points are sorted by leaf cell id (Z-order) so consecutive probes share
// trie path prefixes and every walk resumes at the deepest node shared with
// the previous one (core.Trie.LookupBatch). The live index's delta overlay
// is merged into every result, and emitted pairs carry original stream
// positions, so the reordering is not visible to sinks.
package join

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/core"
	"github.com/actindex/act/internal/delta"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/geostore"
	"github.com/actindex/act/internal/grid"
	"github.com/actindex/act/internal/rtree"
)

// Scratch holds per-worker reusable buffers so the hot path allocates
// nothing after the first chunk.
type Scratch struct {
	res    core.Result
	buf    []uint32
	leaves []cellid.ID
	pts    []geom.Point
	keys   []uint64    // packed (cell, index) sort keys, cell-sorted
	tmp    []uint64    // radix ping-pong buffer
	sorted []cellid.ID // the keys' leaves, ready for LookupBatch
	lo     int         // offset of the run being walked in probe's points
}

// idxBits is the number of low key bits that carry the chunk-local point
// index instead of cell bits. The dropped cell bits select quadrants below
// grid level 22 (cells under ~10 m), too deep to affect probe locality, and
// the packing caps JoinChunk batches at 2^idxBits points.
const idxBits = 16

// sortByCell sorts the chunk's probes by leaf cell id, filling s.keys with
// packed (cell high bits | chunk-local index) keys and s.sorted with the
// leaves in that order. Cell ids sort in Z-order, so consecutive probes are
// spatial neighbours sharing long trie path prefixes — exactly what
// LookupBatch exploits. An LSD radix sort that skips bytes constant across
// the chunk (for city-scale data, most of the key) keeps the sort far
// cheaper than a comparison sort; stability plus the unique index bits make
// equal-cell probes keep stream order.
func (s *Scratch) sortByCell() {
	s.keys = s.keys[:0]
	var diff uint64
	first := uint64(s.leaves[0]) &^ (1<<idxBits - 1)
	for i, leaf := range s.leaves {
		k := uint64(leaf)&^(1<<idxBits-1) | uint64(i)
		diff |= k ^ first
		s.keys = append(s.keys, k)
	}
	s.tmp = append(s.tmp[:0], s.keys...)
	src, dst := s.keys, s.tmp
	for shift := uint(idxBits); shift < 64; shift += 8 {
		if (diff>>shift)&0xFF == 0 {
			continue
		}
		var count [256]int
		for _, k := range src {
			count[(k>>shift)&0xFF]++
		}
		sum := 0
		for b := range count {
			count[b], sum = sum, sum+count[b]
		}
		for _, k := range src {
			b := (k >> shift) & 0xFF
			dst[count[b]] = k
			count[b]++
		}
		src, dst = dst, src
	}
	s.keys, s.tmp = src, dst
	s.sorted = s.sorted[:0]
	for _, k := range s.keys {
		s.sorted = append(s.sorted, s.leaves[k&(1<<idxBits-1)])
	}
}

// probe is the one lookup of the paper run over a batch: map every point to
// its leaf cell, sort the probes by cell, walk the trie in that order (each
// walk resuming at the deepest node shared with the last), and merge the
// live index's delta overlay into each result — delta references appended,
// removed ids filtered out. fn receives each probe's rank k in cell order and whether
// anything matched, with s.res holding the merged references until it
// returns; s.point(k) is the probe's index into points. Handing out ranks
// keeps a static index (ov == nil) at one indirect call per point — fn is
// the walk's own callback — where mapping to the index first would cost
// every point a second one (1.5 ns of 56 on census-3920 at 60 m). The
// packed sort keys carry idxBits of point index, so larger batches are
// probed in 1<<idxBits-point runs (the engine's chunks never exceed one).
func (s *Scratch) probe(g grid.Grid, t *core.Trie, ov *delta.Overlay, points []geo.LatLng, fn func(k int, hit bool)) {
	emit := fn
	if ov != nil {
		emit = func(k int, _ bool) { fn(k, ov.Merge(s.sorted[k], &s.res)) }
	}
	for s.lo = 0; s.lo < len(points); s.lo += 1 << idxBits {
		hi := min(s.lo+1<<idxBits, len(points))
		s.leaves = grid.LeafCells(g, points[s.lo:hi], s.leaves[:0])
		s.sortByCell()
		t.LookupBatch(s.sorted, &s.res, emit)
	}
}

// point undoes the cell sort: the index, into the points probe was given,
// of the probe at rank k of the run being walked.
func (s *Scratch) point(k int) int { return s.lo + int(s.keys[k]&(1<<idxBits-1)) }

// ChunkStats aggregates hit counts for a batch of points.
type ChunkStats struct {
	TrueHits      int64 // pairs known inside without any geometry test
	CandidateHits int64 // pairs reported from boundary cells / MBR stabs
	Misses        int64 // points matching no polygon
}

func (c *ChunkStats) add(o ChunkStats) {
	c.TrueHits += o.TrueHits
	c.CandidateHits += o.CandidateHits
	c.Misses += o.Misses
}

// Joiner is a point→polygon-set join executor. JoinChunk processes a batch
// of points, emitting one pair per reported (point, polygon) match with
// point indices offset by base, and is safe for concurrent use with
// distinct emitters and scratch.
type Joiner interface {
	// Name identifies the joiner in reports.
	Name() string
	// JoinChunk joins points against the polygon set, emitting pairs whose
	// Point field is base plus the point's chunk-local index. A point's
	// pairs are emitted back to back, its true hits first.
	JoinChunk(points []geo.LatLng, base int, em Emitter, s *Scratch) ChunkStats
}

// emitResult streams one lookup's references to the emitter.
func emitResult(em Emitter, point int, res *core.Result, st *ChunkStats) {
	for _, id := range res.True {
		em.Emit(point, id, TrueHit)
	}
	for _, id := range res.Candidates {
		em.Emit(point, id, Candidate)
	}
	st.TrueHits += int64(len(res.True))
	st.CandidateHits += int64(len(res.Candidates))
}

// ACT is the joiner of the paper: a trie lookup per point. Without a Store
// it is the approximate join, all references (true hits and candidates)
// counted as results with no refinement phase at all. With a Store it is
// the exact join: true hits are emitted straight off the fast path, and
// only candidates are resolved against the geometry store with robust
// point-in-polygon tests (bbox pre-filtered, closed-polygon boundary
// convention). The refinement runs in place on the worker's scratch
// result, so a chunk whose matches are all true hits allocates nothing
// and never touches geometry.
type ACT struct {
	Grid grid.Grid
	Trie *core.Trie
	// Overlay is the live index's delta layer, merged into every probe
	// before refinement. Nil for static indexes.
	Overlay *delta.Overlay
	// Store, when set, refines candidate matches; ids in trie and overlay
	// results index into it. Nil for the approximate join.
	Store *geostore.Store
}

// ACTExact is ACT with its Store set.
//
// Deprecated: use ACT, which refines candidates whenever Store is set.
type ACTExact = ACT

// Name implements Joiner.
func (j *ACT) Name() string {
	if j.Store != nil {
		return "act-exact"
	}
	return "act"
}

// JoinChunk implements Joiner.
func (j *ACT) JoinChunk(points []geo.LatLng, base int, em Emitter, s *Scratch) ChunkStats {
	var st ChunkStats
	// The probe has already merged the overlay, so removed ids never reach
	// refinement.
	s.probe(j.Grid, j.Trie, j.Overlay, points, func(k int, hit bool) {
		if hit && j.Store != nil && len(s.res.Candidates) > 0 {
			_, pt := j.Grid.Project(points[s.point(k)])
			s.res.Candidates = j.Store.Resolve(pt, s.res.Candidates, s.res.Candidates[:0])
			hit = s.res.Total() > 0
		}
		if !hit {
			st.Misses++
			return
		}
		emitResult(em, base+s.point(k), &s.res, &st)
	})
	return st
}

// RTree is the paper's baseline: probe the polygon-MBR R-tree and count
// every candidate without refinement ("this approach does not guarantee any
// precision and only serves as a baseline for lookup performance"). With
// Polygons set it refines every candidate with an exact point-in-polygon
// test: the classical filter-and-refine join, used as the ground truth. It
// applies the same closed-polygon boundary convention as ACT with a Store,
// so the two exact joins agree on every input, including boundary points.
type RTree struct {
	Grid grid.Grid
	Tree *rtree.Tree
	// Polygons, when set, holds the grid-projected polygons indexed by
	// polygon id, and refines the candidates. Nil for the baseline.
	Polygons []*geom.Polygon
}

// Name implements Joiner.
func (j *RTree) Name() string {
	if j.Polygons != nil {
		return "rtree-exact"
	}
	return "rtree"
}

// JoinChunk implements Joiner.
func (j *RTree) JoinChunk(points []geo.LatLng, base int, em Emitter, s *Scratch) ChunkStats {
	var st ChunkStats
	s.pts = grid.ProjectAll(j.Grid, points, s.pts[:0])
	for i, pt := range s.pts {
		s.buf = j.Tree.QueryPoint(pt, s.buf[:0])
		if j.Polygons != nil {
			kept := s.buf[:0]
			for _, id := range s.buf {
				if j.Polygons[id].ContainsPointExact(pt) {
					kept = append(kept, id)
				}
			}
			s.buf = kept
		}
		if len(s.buf) == 0 {
			st.Misses++
			continue
		}
		for _, id := range s.buf {
			em.Emit(base+i, id, Candidate)
		}
		st.CandidateHits += int64(len(s.buf))
	}
	return st
}

// Stats reports the outcome of a join run.
type Stats struct {
	Joiner        string
	Points        int
	Threads       int
	TrueHits      int64
	CandidateHits int64
	Misses        int64
	Elapsed       time.Duration
	// ThroughputMPts is the join throughput in million points per second,
	// the unit of Figures 3 and 4.
	ThroughputMPts float64
}

// Pairs returns the total number of output pairs.
func (s Stats) Pairs() int64 { return s.TrueHits + s.CandidateHits }

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d pts, %d threads, %.2f M pts/s (%d true, %d cand, %d miss)",
		s.Joiner, s.Points, s.Threads, s.ThroughputMPts, s.TrueHits, s.CandidateHits, s.Misses)
}

// Chunk sizing. A chunk is the unit of work a worker claims at a time: it
// must be large enough to amortize the atomic claim and make cell-sorting
// pay, and small enough that workers stay balanced on skewed batches and a
// cancelled context is honoured promptly. Instead of a fixed size, the
// engine derives the chunk from the workload: aim for chunksPerWorker
// claims per worker — enough slack for dynamic balancing when chunk costs
// vary — clamped below by minChunkSize (the point where per-chunk overhead
// stops mattering) and above by the 1<<idxBits capacity of the packed sort
// keys. Big single-threaded batches thus sort in 64Ki-point chunks (longer
// shared trie path runs, fewer claims), while the same batch across many
// cores splits fine enough to saturate all of them.
const (
	minChunkSize    = 1024
	maxChunkSize    = 1 << idxBits
	chunksPerWorker = 8
)

// chunkSizeFor returns the engine's chunk size for a run of n points on
// the given number of workers.
func chunkSizeFor(n, threads int) int {
	if threads < 1 {
		threads = 1
	}
	c := n / (threads * chunksPerWorker)
	if c < minChunkSize {
		return minChunkSize
	}
	if c > maxChunkSize {
		return maxChunkSize
	}
	return c
}

// scratchPool recycles worker Scratch buffers across runs. A serving
// workload (actserve /join, LookupBatch) runs the engine once per request;
// without the pool every request re-grows each worker's sort keys, leaf
// cells, and result buffers from zero, which dominated request allocations.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

func getScratch() *Scratch  { return scratchPool.Get().(*Scratch) }
func putScratch(s *Scratch) { scratchPool.Put(s) }

// workerSlot is one worker's private accumulator, padded so that adjacent
// workers' slots never share a cache line: the engine previously bumped a
// shared atomic per chunk, whose line every core invalidated in turn. The
// padding rounds the struct up to two 64-byte lines, covering the common
// 128-byte spatial-prefetch pairing as well.
type workerSlot struct {
	stats  ChunkStats
	joined int64
	_      [128 - (unsafe.Sizeof(ChunkStats{})+8)%128]byte
}

// RunSink is the streaming join engine: it shards the point stream into
// chunks, drives the joiner over them with the given number of worker
// goroutines, and delivers every emitted pair to the sink. threads ≤ 0
// selects GOMAXPROCS. It is RunSinkContext with a background context.
func RunSink(j Joiner, points []geo.LatLng, sink Sink, threads int) Stats {
	stats, _ := RunSinkContext(context.Background(), j, points, sink, threads)
	return stats
}

// RunSinkContext is RunSink with cancellation: every worker checks the
// context before claiming its next chunk, so a cancelled context aborts the
// join within one chunk's worth of work per worker. On cancellation the
// pairs already emitted are still merged into the sink, the returned stats
// cover only the chunks actually joined, and the error is ctx.Err(). A
// cancellation that lands after the last chunk was already joined is not an
// error: the join is complete, so the error is nil — completed work is
// never discarded.
//
// The worker count is capped at the number of chunks, so tiny batches do
// not pay goroutine and emitter setup for workers that could never claim
// work; Stats.Threads reports the workers actually run.
func RunSinkContext(ctx context.Context, j Joiner, points []geo.LatLng, sink Sink, threads int) (Stats, error) {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	chunk := chunkSizeFor(len(points), threads)
	if nChunks := (len(points) + chunk - 1) / chunk; threads > nChunks {
		threads = max(nChunks, 1)
	}
	start := time.Now()
	emitters := make([]Emitter, threads)
	for w := range emitters {
		emitters[w] = sink.NewEmitter()
	}
	// The only shared mutable word is the claim counter; every other
	// per-chunk update lands in the worker's own padded slot.
	var next atomic.Int64
	slots := make([]workerSlot, threads)
	work := func(slot *workerSlot, em Emitter) {
		fl, _ := em.(chunkFlusher)
		s := getScratch()
		defer putScratch(s)
		for ctx.Err() == nil {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= len(points) {
				break
			}
			hi := min(lo+chunk, len(points))
			slot.stats.add(j.JoinChunk(points[lo:hi], lo, em, s))
			slot.joined += int64(hi - lo)
			if fl != nil {
				fl.flushChunk()
			}
		}
	}
	if threads == 1 {
		// A lone worker runs on the caller's goroutine: a request-sized
		// join pays for no goroutine.
		work(&slots[0], emitters[0])
	} else {
		var wg sync.WaitGroup
		for w := range slots {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(&slots[w], emitters[w])
			}()
		}
		wg.Wait()
	}
	var total ChunkStats
	joined := 0
	for i := range slots {
		total.add(slots[i].stats)
		joined += int(slots[i].joined)
		sink.Merge(emitters[i])
	}
	sink.Finish()
	elapsed := time.Since(start)
	stats := Stats{
		Joiner:        j.Name(),
		Points:        joined,
		Threads:       threads,
		TrueHits:      total.TrueHits,
		CandidateHits: total.CandidateHits,
		Misses:        total.Misses,
		Elapsed:       elapsed,
	}
	if elapsed > 0 {
		stats.ThroughputMPts = float64(joined) / elapsed.Seconds() / 1e6
	}
	if joined == len(points) {
		return stats, nil
	}
	return stats, ctx.Err()
}

// Run executes the join and returns per-polygon counts ("count the number
// of points per polygon", §III) — a thin wrapper over RunSink with a
// CountSink. numPolygons sizes the counter array; threads ≤ 0 selects
// GOMAXPROCS.
func Run(j Joiner, points []geo.LatLng, numPolygons, threads int) ([]uint64, Stats) {
	sink := NewCountSink(numPolygons)
	stats := RunSink(j, points, sink, threads)
	return sink.Counts, stats
}
