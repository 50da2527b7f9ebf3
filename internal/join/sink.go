package join

import (
	"fmt"
	"slices"
	"sync"

	"github.com/actindex/act/internal/core"
)

// Class labels a join pair with the certainty the index established for it.
type Class uint8

const (
	// TrueHit marks a pair whose point is certainly inside the polygon
	// (the point's leaf cell is an interior cell; no geometry was tested).
	TrueHit Class = iota
	// Candidate marks a pair reported from a boundary cell or an MBR stab:
	// the point is inside or within the precision bound of the polygon.
	// Exact joiners refine candidates before emitting, so their Candidate
	// pairs are also truly inside — the class then records that the pair
	// needed a point-in-polygon test.
	Candidate
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case TrueHit:
		return "true"
	case Candidate:
		return "candidate"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Pair is one join output tuple: the position of the point in the input
// stream, the polygon it matched, and the certainty class of the match.
type Pair struct {
	Point   int
	Polygon uint32
	Class   Class
}

// Emitter receives the pairs produced by one worker. Implementations need
// not be safe for concurrent use: the engine creates one emitter per worker
// and never shares it across goroutines.
type Emitter interface {
	// Emit delivers one join pair. point is the index into the full input
	// stream (chunk reordering is already undone by the joiner).
	Emit(point int, polygon uint32, class Class)
}

// chunkFlusher is an optional Emitter extension: the engine calls
// flushChunk after each processed chunk, letting sinks hand batches onward
// (e.g. to a user callback) without per-pair synchronization.
type chunkFlusher interface {
	flushChunk()
}

// Sink is the output side of the join engine. The engine requests one
// Emitter per worker before the run starts, drives each from exactly one
// goroutine, and folds them back serially when all workers are done — so
// only Emitter implementations see concurrency, and none of it is shared.
type Sink interface {
	// NewEmitter returns a fresh per-worker emitter. Called serially
	// before the workers start.
	NewEmitter() Emitter
	// Merge folds a finished worker's emitter back into the sink. Called
	// serially after all workers complete, once per emitter, in
	// unspecified order.
	Merge(Emitter)
	// Finish is called once after the last Merge.
	Finish()
}

// CountSink aggregates pairs into per-polygon counts — "count the number of
// points per polygon" (§III), the aggregation the paper's evaluation
// performs and the shape join.Run exposes.
type CountSink struct {
	// Counts is indexed by polygon id.
	Counts []uint64
}

// NewCountSink returns a count sink for numPolygons polygons.
func NewCountSink(numPolygons int) *CountSink {
	return &CountSink{Counts: make([]uint64, numPolygons)}
}

type countEmitter struct {
	counts []uint64
}

func (e *countEmitter) Emit(_ int, polygon uint32, _ Class) { e.counts[polygon]++ }

// NewEmitter implements Sink.
func (s *CountSink) NewEmitter() Emitter {
	return &countEmitter{counts: make([]uint64, len(s.Counts))}
}

// Merge implements Sink.
func (s *CountSink) Merge(e Emitter) {
	for i, c := range e.(*countEmitter).counts {
		s.Counts[i] += c
	}
}

// Finish implements Sink.
func (s *CountSink) Finish() {}

// PairSink materializes the join: every pair, sorted by point index (ties
// by polygon id, then class) so the output is deterministic regardless of
// the worker count.
type PairSink struct {
	Pairs []Pair
}

type pairEmitter struct {
	pairs []Pair
}

func (e *pairEmitter) Emit(point int, polygon uint32, class Class) {
	e.pairs = append(e.pairs, Pair{Point: point, Polygon: polygon, Class: class})
}

// NewEmitter implements Sink.
func (s *PairSink) NewEmitter() Emitter { return &pairEmitter{} }

// Merge implements Sink.
func (s *PairSink) Merge(e Emitter) {
	s.Pairs = append(s.Pairs, e.(*pairEmitter).pairs...)
}

// Finish implements Sink.
func (s *PairSink) Finish() {
	slices.SortFunc(s.Pairs, comparePairs)
}

func comparePairs(a, b Pair) int {
	switch {
	case a.Point != b.Point:
		if a.Point < b.Point {
			return -1
		}
		return 1
	case a.Polygon != b.Polygon:
		if a.Polygon < b.Polygon {
			return -1
		}
		return 1
	case a.Class != b.Class:
		if a.Class < b.Class {
			return -1
		}
		return 1
	default:
		return 0
	}
}

// ResultSink gathers the pairs point by point, the shape of one lookup per
// point: Results[i] receives point i's true hits in True and its candidates
// in Candidates, each in emission order. Distinct points own distinct
// slots, so the emitters share the slice without synchronization.
type ResultSink struct {
	Results []core.Result
}

// NewResultSink returns a result sink for numPoints points.
func NewResultSink(numPoints int) *ResultSink {
	return &ResultSink{Results: make([]core.Result, numPoints)}
}

// resultBlock is the number of ids a result emitter allocates at a time.
const resultBlock = 4096

// resultEmitter carves the results' id lists out of shared blocks instead of
// allocating two per point. The joiners emit a point's pairs back to back,
// true hits first, so the ids of the latest point are the block's tail:
// True is its first part and Candidates the rest, both capped so that an
// append by the caller copies instead of overwriting a neighbour.
type resultEmitter struct {
	results []core.Result
	ids     []uint32
	last    int // the point whose ids end ids, and where they start
	start   int
}

func (e *resultEmitter) Emit(point int, polygon uint32, class Class) {
	r := &e.results[point]
	if point != e.last {
		e.last, e.start = point, len(e.ids)
	}
	if len(e.ids) == cap(e.ids) {
		// The block is full: carry the point's ids so far into a new one.
		e.ids = append(make([]uint32, 0, resultBlock+len(e.ids)-e.start), e.ids[e.start:]...)
		e.start = 0
	}
	e.ids = append(e.ids, polygon)
	mid, end := e.start+len(r.True), len(e.ids)
	if class == TrueHit {
		mid++
		r.True = e.ids[e.start:mid:mid]
	} else {
		r.Candidates = e.ids[mid:end:end]
	}
}

// NewEmitter implements Sink.
func (s *ResultSink) NewEmitter() Emitter { return &resultEmitter{results: s.Results, last: -1} }

// Merge implements Sink.
func (s *ResultSink) Merge(Emitter) {}

// Finish implements Sink.
func (s *ResultSink) Finish() {}

// FuncSink streams every pair to Fn as it is produced, chunk by chunk. The
// sink serializes delivery: Fn is never invoked concurrently, so it may
// write to an io.Writer or other unsynchronized state. Within one chunk
// pairs arrive in nondecreasing point order; across chunks the order
// follows worker progress, not stream order (single-threaded runs are fully
// stream-ordered).
type FuncSink struct {
	Fn func(Pair)

	mu sync.Mutex
}

// pairBufPool recycles the per-worker chunk buffers of FuncSink emitters.
// A streaming join's buffer grows to the densest chunk's pair count; the
// pool keeps that capacity across runs instead of re-growing it from nil
// every time a request streams.
var pairBufPool = sync.Pool{New: func() any { return new([]Pair) }}

type funcEmitter struct {
	sink *FuncSink
	buf  *[]Pair
}

func (e *funcEmitter) Emit(point int, polygon uint32, class Class) {
	*e.buf = append(*e.buf, Pair{Point: point, Polygon: polygon, Class: class})
}

func (e *funcEmitter) flushChunk() {
	if len(*e.buf) == 0 {
		return
	}
	// Joiners may emit in cell-sorted probe order; restore stream order
	// within the chunk before it reaches the consumer.
	slices.SortFunc(*e.buf, comparePairs)
	e.sink.mu.Lock()
	for _, p := range *e.buf {
		e.sink.Fn(p)
	}
	e.sink.mu.Unlock()
	*e.buf = (*e.buf)[:0]
}

// NewEmitter implements Sink.
func (s *FuncSink) NewEmitter() Emitter {
	return &funcEmitter{sink: s, buf: pairBufPool.Get().(*[]Pair)}
}

// Merge implements Sink (flushes any pairs of a final partial chunk, then
// returns the chunk buffer to the pool).
func (s *FuncSink) Merge(e Emitter) {
	fe := e.(*funcEmitter)
	fe.flushChunk()
	pairBufPool.Put(fe.buf)
	fe.buf = nil
}

// Finish implements Sink.
func (s *FuncSink) Finish() {}
