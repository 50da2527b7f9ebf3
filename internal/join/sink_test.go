package join

import (
	"slices"
	"sort"
	"testing"

	"github.com/actindex/act/internal/core"
	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/geostore"
	"github.com/actindex/act/internal/grid"
)

// arrivalOrder is the reference the probe kernel is checked against: one
// Trie.Lookup per point in stream order — no cell sort, no batch walk, no
// packed index bits to undo. With a store it refines candidates the way
// ACTExact does; without, it reports them the way ACT does.
type arrivalOrder struct {
	g     grid.Grid
	trie  *core.Trie
	store *geostore.Store
}

func (j *arrivalOrder) Name() string { return "arrival-order" }

func (j *arrivalOrder) JoinChunk(points []geo.LatLng, base int, em Emitter, _ *Scratch) ChunkStats {
	var st ChunkStats
	var res core.Result
	for i, ll := range points {
		res.Reset()
		hit := j.trie.Lookup(grid.LeafCell(j.g, ll), &res)
		if hit && j.store != nil {
			_, pt := j.g.Project(ll)
			res.Candidates = j.store.Resolve(pt, res.Candidates, nil)
			hit = res.Total() > 0
		}
		if !hit {
			st.Misses++
			continue
		}
		emitResult(em, base+i, &res, &st)
	}
	return st
}

// countsFromPairs folds a pair list into per-polygon counts.
func countsFromPairs(pairs []Pair, n int) []uint64 {
	counts := make([]uint64, n)
	for _, p := range pairs {
		counts[p.Polygon]++
	}
	return counts
}

// TestPairSinkMatchesCounts: the pair stream, aggregated, must equal the
// CountSink output for every joiner and the arrival-order reference, serial
// and parallel.
func TestPairSinkMatchesCounts(t *testing.T) {
	set, pts := testData(t)
	p := buildPipeline(t, set, 15)
	joiners := []Joiner{
		&ACT{Grid: p.g, Trie: p.trie},
		&arrivalOrder{g: p.g, trie: p.trie},
		&ACTExact{Grid: p.g, Trie: p.trie, Store: p.store},
		&arrivalOrder{g: p.g, trie: p.trie, store: p.store},
		&RTree{Grid: p.g, Tree: p.tree},
		&RTree{Grid: p.g, Tree: p.tree, Polygons: p.projected},
	}
	for _, j := range joiners {
		counts, cst := Run(j, pts, p.n, 1)
		for _, threads := range []int{1, 4} {
			sink := &PairSink{}
			pst := RunSink(j, pts, sink, threads)
			if pst.Pairs() != cst.Pairs() || pst.Misses != cst.Misses {
				t.Fatalf("%s/%dT: pair stats %+v, count stats %+v", j.Name(), threads, pst, cst)
			}
			got := countsFromPairs(sink.Pairs, p.n)
			for i := range counts {
				if counts[i] != got[i] {
					t.Fatalf("%s/%dT polygon %d: count %d, pairs %d", j.Name(), threads, i, counts[i], got[i])
				}
			}
			if int64(len(sink.Pairs)) != pst.Pairs() {
				t.Fatalf("%s/%dT: %d pairs materialized, stats say %d", j.Name(), threads, len(sink.Pairs), pst.Pairs())
			}
			// Point indices must be valid stream positions.
			for _, pr := range sink.Pairs {
				if pr.Point < 0 || pr.Point >= len(pts) {
					t.Fatalf("%s/%dT: pair with out-of-range point %d", j.Name(), threads, pr.Point)
				}
			}
			if !sort.SliceIsSorted(sink.Pairs, func(a, b int) bool {
				return comparePairs(sink.Pairs[a], sink.Pairs[b]) < 0
			}) {
				t.Fatalf("%s/%dT: pairs not sorted", j.Name(), threads)
			}
		}
	}
}

// TestPairsDeterministicAcrossThreads: PairSink output is identical no
// matter how many workers produced it.
func TestPairsDeterministicAcrossThreads(t *testing.T) {
	set, pts := testData(t)
	p := buildPipeline(t, set, 15)
	j := &ACT{Grid: p.g, Trie: p.trie}
	serial := &PairSink{}
	RunSink(j, pts, serial, 1)
	parallel := &PairSink{}
	RunSink(j, pts, parallel, 8)
	if len(serial.Pairs) != len(parallel.Pairs) {
		t.Fatalf("pair counts differ: %d vs %d", len(serial.Pairs), len(parallel.Pairs))
	}
	for i := range serial.Pairs {
		if serial.Pairs[i] != parallel.Pairs[i] {
			t.Fatalf("pair %d differs: %+v vs %+v", i, serial.Pairs[i], parallel.Pairs[i])
		}
	}
}

// TestSortedMatchesUnsorted: the cell-sorted batch path is a pure
// optimization — its pair set must be identical to arrival-order probing.
func TestSortedMatchesUnsorted(t *testing.T) {
	set, pts := testData(t)
	p := buildPipeline(t, set, 15)
	for _, pair := range [][2]Joiner{
		{&ACT{Grid: p.g, Trie: p.trie}, &arrivalOrder{g: p.g, trie: p.trie}},
		{&ACTExact{Grid: p.g, Trie: p.trie, Store: p.store}, &arrivalOrder{g: p.g, trie: p.trie, store: p.store}},
	} {
		sorted, unsorted := &PairSink{}, &PairSink{}
		sst := RunSink(pair[0], pts, sorted, 2)
		ust := RunSink(pair[1], pts, unsorted, 2)
		if sst.Pairs() != ust.Pairs() || sst.TrueHits != ust.TrueHits || sst.Misses != ust.Misses {
			t.Fatalf("%s: sorted stats %+v, unsorted stats %+v", pair[0].Name(), sst, ust)
		}
		for i := range sorted.Pairs {
			if sorted.Pairs[i] != unsorted.Pairs[i] {
				t.Fatalf("%s pair %d: sorted %+v, unsorted %+v", pair[0].Name(), i, sorted.Pairs[i], unsorted.Pairs[i])
			}
		}
	}
}

// TestJoinChunkOversize: a chunk beyond the 1<<idxBits capacity of the
// packed sort keys — which the engine never sends, but JoinChunk accepts —
// must be split, not probed whole: a missed split ORs index bits into cell
// bits and silently reports wrong pairs under wrong point indices.
func TestJoinChunkOversize(t *testing.T) {
	set, _ := testData(t)
	p := buildPipeline(t, set, 30)
	pts, err := data.GeneratePoints(data.PointConfig{N: 1<<idxBits + 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const base = 7
	for _, pair := range [][2]Joiner{
		{&ACT{Grid: p.g, Trie: p.trie}, &arrivalOrder{g: p.g, trie: p.trie}},
		{&ACTExact{Grid: p.g, Trie: p.trie, Store: p.store}, &arrivalOrder{g: p.g, trie: p.trie, store: p.store}},
	} {
		got, want := &pairEmitter{}, &pairEmitter{}
		gst := pair[0].JoinChunk(pts, base, got, &Scratch{})
		wst := pair[1].JoinChunk(pts, base, want, nil)
		if gst != wst {
			t.Fatalf("%s: stats %+v, arrival order %+v", pair[0].Name(), gst, wst)
		}
		sortPairs(got.pairs)
		sortPairs(want.pairs)
		if last := want.pairs[len(want.pairs)-1].Point; last != base+1<<idxBits {
			t.Fatalf("fixture: point %d, the one past the first run, must match (last pair at %d)", base+1<<idxBits, last)
		}
		if len(got.pairs) != len(want.pairs) {
			t.Fatalf("%s: %d pairs, arrival order %d", pair[0].Name(), len(got.pairs), len(want.pairs))
		}
		for i := range want.pairs {
			if got.pairs[i] != want.pairs[i] {
				t.Fatalf("%s pair %d: %+v, arrival order %+v", pair[0].Name(), i, got.pairs[i], want.pairs[i])
			}
		}
	}
}

// TestFuncSinkStreamsEverything: the callback sink must deliver exactly the
// PairSink pair multiset, serialized (no concurrent invocations), with
// nondecreasing point order within each delivered chunk run.
func TestFuncSinkStreamsEverything(t *testing.T) {
	set, pts := testData(t)
	p := buildPipeline(t, set, 30)
	j := &ACTExact{Grid: p.g, Trie: p.trie, Store: p.store}
	want := &PairSink{}
	RunSink(j, pts, want, 1)
	for _, threads := range []int{1, 4} {
		var got []Pair
		inFn := false
		sink := &FuncSink{Fn: func(pr Pair) {
			if inFn {
				t.Fatal("Fn invoked concurrently")
			}
			inFn = true
			got = append(got, pr)
			inFn = false
		}}
		st := RunSink(j, pts, sink, threads)
		if int64(len(got)) != st.Pairs() {
			t.Fatalf("%dT: streamed %d pairs, stats say %d", threads, len(got), st.Pairs())
		}
		if threads == 1 {
			// Single-threaded streaming is fully stream-ordered.
			for i := 1; i < len(got); i++ {
				if got[i].Point < got[i-1].Point {
					t.Fatalf("1T: stream order broken at %d: %+v after %+v", i, got[i], got[i-1])
				}
			}
		}
		sortPairs(got)
		for i := range want.Pairs {
			if got[i] != want.Pairs[i] {
				t.Fatalf("%dT pair %d: %+v, want %+v", threads, i, got[i], want.Pairs[i])
			}
		}
	}
}

func sortPairs(pairs []Pair) {
	sort.Slice(pairs, func(i, j int) bool { return comparePairs(pairs[i], pairs[j]) < 0 })
}

// TestExactPairsMatchGroundTruth: pair emission from the ACT exact joiner
// must agree pair-for-pair with the R-tree filter-and-refine ground truth
// on a random workload.
func TestExactPairsMatchGroundTruth(t *testing.T) {
	set, pts := testData(t)
	p := buildPipeline(t, set, 15)
	actSink, rtSink := &PairSink{}, &PairSink{}
	RunSink(&ACTExact{Grid: p.g, Trie: p.trie, Store: p.store}, pts, actSink, 4)
	RunSink(&RTree{Grid: p.g, Tree: p.tree, Polygons: p.projected}, pts, rtSink, 4)
	if len(actSink.Pairs) != len(rtSink.Pairs) {
		t.Fatalf("pair counts differ: act-exact %d, rtree-exact %d", len(actSink.Pairs), len(rtSink.Pairs))
	}
	// Classes differ (ACT knows true hits), so compare (point, polygon)
	// tuples only; both are sorted on exactly that prefix.
	for i := range actSink.Pairs {
		a, b := actSink.Pairs[i], rtSink.Pairs[i]
		if a.Point != b.Point || a.Polygon != b.Polygon {
			t.Fatalf("pair %d differs: act-exact %+v, rtree-exact %+v", i, a, b)
		}
	}
}

func TestClassString(t *testing.T) {
	if TrueHit.String() != "true" || Candidate.String() != "candidate" {
		t.Errorf("class strings: %q, %q", TrueHit, Candidate)
	}
	if Class(9).String() == "" {
		t.Error("unknown class should still print")
	}
}

// TestResultSinkMatchesLookup: gathered per point, the approximate join
// must hold, for every point, what one scalar trie lookup reports — on one
// worker and on several sharing the result slice.
func TestResultSinkMatchesLookup(t *testing.T) {
	set, pts := testData(t)
	p := buildPipeline(t, set, 30)
	j := &ACT{Grid: p.g, Trie: p.trie}
	var want core.Result
	for _, threads := range []int{1, 4} {
		sink := NewResultSink(len(pts))
		RunSink(j, pts, sink, threads)
		for i, ll := range pts {
			want.Reset()
			p.trie.Lookup(grid.LeafCell(p.g, ll), &want)
			if got := &sink.Results[i]; !got.Equal(&want) {
				t.Fatalf("%dT point %d: %+v, Lookup %+v", threads, i, *got, want)
			}
		}
	}
}

// TestResultSinkBlockBoundary: a point whose ids straddle the end of an id
// block keeps all of them, and appending to one point's ids never
// overwrites another's.
func TestResultSinkBlockBoundary(t *testing.T) {
	sink := NewResultSink(3)
	em := sink.NewEmitter()
	for i := range resultBlock - 1 {
		em.Emit(0, uint32(i), Candidate)
	}
	em.Emit(1, 7, TrueHit) // fills the block
	em.Emit(1, 8, TrueHit) // carries 7 into the next one
	em.Emit(1, 9, Candidate)
	em.Emit(2, 5, TrueHit)
	r := sink.Results
	if len(r[0].True) != 0 || len(r[0].Candidates) != resultBlock-1 || r[0].Candidates[resultBlock-2] != resultBlock-2 {
		t.Fatalf("point 0: %d true, %d candidates", len(r[0].True), len(r[0].Candidates))
	}
	if !slices.Equal(r[1].True, []uint32{7, 8}) || !slices.Equal(r[1].Candidates, []uint32{9}) || !slices.Equal(r[2].True, []uint32{5}) || r[2].Candidates != nil {
		t.Fatalf("points 1 and 2: %+v %+v", r[1], r[2])
	}
	_ = append(r[1].True, 99)
	_ = append(r[1].Candidates, 99)
	if r[1].Candidates[0] != 9 || r[2].True[0] != 5 {
		t.Fatalf("an append overwrote a neighbour: %+v %+v", r[1], r[2])
	}
}
