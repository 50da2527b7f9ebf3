package act_test

// Property tests for the live-mutation subsystem: under randomized
// insert/remove/compact schedules, the mutated index — base trie + delta
// overlay, or the freshly compacted base — must be result-identical to an
// index rebuilt from scratch over the surviving polygon set, for every
// lookup path (scalar, batch, exact refinement, and the join engine's
// counts).

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/data"
)

// liveSet tracks, alongside the mutated index, which polygon every live id
// maps to — the ground truth a from-scratch rebuild is made from.
type liveSet struct {
	polys map[uint32]*act.Polygon
}

func (ls *liveSet) ids() []uint32 {
	ids := make([]uint32, 0, len(ls.polys))
	for id := range ls.polys {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// rebuild constructs the reference index over the surviving polygons (dense
// ids) and the mapping from its dense ids back to the live index's ids.
func (ls *liveSet) rebuild(t *testing.T, eps float64) (*act.Index, []uint32) {
	t.Helper()
	ids := ls.ids()
	polys := make([]*act.Polygon, len(ids))
	for i, id := range ids {
		polys[i] = ls.polys[id]
	}
	ref, err := act.New(polys, act.WithPrecision(eps))
	if err != nil {
		t.Fatalf("reference rebuild: %v", err)
	}
	return ref, ids
}

// translate maps a reference result's dense ids back to live ids, sorted.
func translate(ids []uint32, idMap []uint32) []uint32 {
	out := make([]uint32, len(ids))
	for i, id := range ids {
		out[i] = idMap[id]
	}
	slices.Sort(out)
	return out
}

func sorted(ids []uint32) []uint32 {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

// checkDeltaEquivalence compares every lookup path of the mutated index
// against a from-scratch rebuild over the surviving set.
func checkDeltaEquivalence(t *testing.T, idx *act.Index, ls *liveSet, pts []act.LatLng, eps float64, step int) {
	t.Helper()
	ref, idMap := ls.rebuild(t, eps)
	ctx := context.Background()

	var res, refRes act.Result
	var refs []act.Match
	for i, ll := range pts {
		// Scalar approximate lookup.
		mustLookup(t, idx, ll, act.Approximate, &res)
		mustLookup(t, ref, ll, act.Approximate, &refRes)
		if !slices.Equal(sorted(res.True), translate(refRes.True, idMap)) ||
			!slices.Equal(sorted(res.Candidates), translate(refRes.Candidates, idMap)) {
			t.Fatalf("step %d point %d: merged lookup %v/%v, rebuild %v/%v",
				step, i, res.True, res.Candidates, translate(refRes.True, idMap), translate(refRes.Candidates, idMap))
		}
		// The class-carrying and conflated append paths must agree with
		// the merged Result.
		refs = idx.AppendRefs(ll, refs[:0])
		var trues, cands []uint32
		for _, m := range refs {
			if m.Exact {
				trues = append(trues, m.ID)
			} else {
				cands = append(cands, m.ID)
			}
		}
		if !slices.Equal(sorted(trues), sorted(res.True)) || !slices.Equal(sorted(cands), sorted(res.Candidates)) {
			t.Fatalf("step %d point %d: AppendRefs %v/%v disagrees with Lookup %v/%v",
				step, i, trues, cands, res.True, res.Candidates)
		}
		// Exact refinement across the base store / delta geometry split.
		mustLookup(t, idx, ll, act.Exact, &res)
		mustLookup(t, ref, ll, act.Exact, &refRes)
		if !slices.Equal(sorted(res.True), translate(refRes.True, idMap)) {
			t.Fatalf("step %d point %d: merged exact %v, rebuild %v",
				step, i, sorted(res.True), translate(refRes.True, idMap))
		}
	}

	// Batch path (cell-sorted).
	got, err := idx.LookupBatch(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.LookupBatch(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if !slices.Equal(sorted(got[i].True), translate(want[i].True, idMap)) ||
			!slices.Equal(sorted(got[i].Candidates), translate(want[i].Candidates, idMap)) {
			t.Fatalf("step %d: LookupBatch[%d] merged %v/%v, rebuild %v/%v",
				step, i, got[i].True, got[i].Candidates, want[i].True, want[i].Candidates)
		}
	}

	// Exact join counts over the engine (chunking, workers, refinement).
	counts, _, err := idx.JoinContext(ctx, pts, act.Exact, 2)
	if err != nil {
		t.Fatal(err)
	}
	refCounts, _, err := ref.JoinContext(ctx, pts, act.Exact, 2)
	if err != nil {
		t.Fatal(err)
	}
	for dense, id := range idMap {
		if counts[id] != refCounts[dense] {
			t.Fatalf("step %d: JoinExact count for id %d = %d, rebuild %d",
				step, id, counts[id], refCounts[dense])
		}
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	var refTotal uint64
	for _, c := range refCounts {
		refTotal += c
	}
	if total != refTotal {
		t.Fatalf("step %d: merged join emitted %d pairs, rebuild %d (lost or phantom ids)", step, total, refTotal)
	}
}

// TestDeltaEquivalenceProperty drives randomized mutation schedules and
// checks, after every step, that merged base+delta lookups (and, after
// compaction steps, the compacted base) equal a from-scratch rebuild.
func TestDeltaEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test builds many indexes")
	}
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(900 + trial)))
		eps := 250.0
		if trial%2 == 1 {
			eps = 60
		}
		// One clustered pool; the first chunk seeds the base, the rest
		// arrive as live inserts, so delta coverings overlap base ones.
		pool := randPolygonSet(rng)
		for len(pool) < 10 {
			pool = append(pool, randPolygonSet(rng)...)
		}
		nBase := 3 + rng.Intn(3)
		base, inserts := pool[:nBase], pool[nBase:]
		idx, err := act.New(base,
			act.WithPrecision(eps),
			act.WithDeltaThreshold(-1)) // deterministic: compact only on demand
		if err != nil {
			t.Fatal(err)
		}
		ls := &liveSet{polys: map[uint32]*act.Polygon{}}
		for i, p := range base {
			ls.polys[uint32(i)] = p
		}
		pts := randPoints(rng, pool, 90)
		ctx := context.Background()

		steps := 8 + rng.Intn(5)
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 5 && len(inserts) > 0: // insert
				p := inserts[0]
				inserts = inserts[1:]
				id, err := idx.Insert(ctx, p)
				if err != nil {
					t.Fatalf("step %d: insert: %v", step, err)
				}
				if _, dup := ls.polys[id]; dup {
					t.Fatalf("step %d: id %d reused", step, id)
				}
				ls.polys[id] = p
			case op < 8 && len(ls.polys) > 1: // remove (keep one survivor)
				ids := ls.ids()
				id := ids[rng.Intn(len(ids))]
				if err := idx.Remove(ctx, id); err != nil {
					t.Fatalf("step %d: remove %d: %v", step, id, err)
				}
				delete(ls.polys, id)
			default: // compact
				if err := idx.Compact(ctx); err != nil {
					t.Fatalf("step %d: compact: %v", step, err)
				}
			}
			if idx.Status().Live != len(ls.polys) {
				t.Fatalf("step %d: NumPolygons %d, live set %d", step, idx.Status().Live, len(ls.polys))
			}
			checkDeltaEquivalence(t, idx, ls, pts, eps, step)
		}
		// Final compaction must preserve results too, and must clear
		// the pending counters.
		if err := idx.Compact(ctx); err != nil {
			t.Fatal(err)
		}
		if ds := idx.Status(); ds.DeltaPolygons+ds.Tombstones != 0 || ds.Compactions == 0 {
			t.Fatalf("after final compaction: %+v", ds)
		}
		checkDeltaEquivalence(t, idx, ls, pts, eps, steps)
	}
}

// TestAutoCompaction checks that crossing the threshold triggers a
// background compaction that folds the delta away without changing
// results.
func TestAutoCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := randPolygonSet(rng)
	for len(pool) < 8 {
		pool = append(pool, randPolygonSet(rng)...)
	}
	idx, err := act.New(pool[:2], act.WithPrecision(250), act.WithDeltaThreshold(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, p := range pool[2:8] {
		if _, err := idx.Insert(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for idx.Status().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no background compaction after threshold crossing: %+v", idx.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Quiesce (a compaction may still be folding the tail), then verify
	// the index serves the full set.
	if err := idx.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if ds := idx.Status(); ds.DeltaPolygons+ds.Tombstones != 0 || ds.Live != 8 {
		t.Fatalf("after compaction: %+v", ds)
	}
	ls := &liveSet{polys: map[uint32]*act.Polygon{}}
	for i, p := range pool[:8] {
		ls.polys[uint32(i)] = p
	}
	checkDeltaEquivalence(t, idx, ls, randPoints(rng, pool[:8], 60), 250, 0)
}

// TestMutationAPIContract pins the mutation API's edges: id stability,
// error cases, serialization gating, and the immutability of deserialized
// indexes.
func TestMutationAPIContract(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := randPolygonSet(rng)
	for len(pool) < 5 {
		pool = append(pool, randPolygonSet(rng)...)
	}
	idx, err := act.New(pool[:3], act.WithPrecision(250), act.WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if !idx.Status().Mutable {
		t.Fatal("in-process index should be mutable")
	}
	gen := idx.Status().Generation

	id, err := idx.Insert(ctx, pool[3])
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 {
		t.Fatalf("first insert got id %d, want 3", id)
	}
	if !idx.IsDelta(id) || idx.IsDelta(0) {
		t.Fatalf("IsDelta: delta id %v, base id %v", idx.IsDelta(id), idx.IsDelta(0))
	}
	if idx.Status().Generation <= gen {
		t.Fatal("Insert did not advance the epoch generation")
	}

	// A dirty index refuses to serialize; a removal-scarred one refuses
	// forever; an insert-only one serializes after compaction.
	if _, err := idx.WriteTo(&bytes.Buffer{}); !errors.Is(err, act.ErrPendingMutations) {
		t.Fatalf("dirty WriteTo: %v", err)
	}
	if err := idx.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if idx.IsDelta(id) {
		t.Fatal("compaction left the inserted id in the delta layer")
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatalf("compacted insert-only WriteTo: %v", err)
	}

	loaded, err := act.ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Status().Mutable {
		t.Fatal("deserialized index should be immutable")
	}
	if _, err := loaded.Insert(ctx, pool[4]); !errors.Is(err, act.ErrImmutable) {
		t.Fatalf("Insert on deserialized index: %v", err)
	}
	if err := loaded.Remove(ctx, 0); !errors.Is(err, act.ErrImmutable) {
		t.Fatalf("Remove on deserialized index: %v", err)
	}
	if err := loaded.Compact(ctx); !errors.Is(err, act.ErrImmutable) {
		t.Fatalf("Compact on deserialized index: %v", err)
	}

	// Remove errors, and a sparse id space serializes as v4.
	if err := idx.Remove(ctx, 99); !errors.Is(err, act.ErrUnknownPolygon) {
		t.Fatalf("Remove unknown id: %v", err)
	}
	if err := idx.Remove(ctx, id); err != nil {
		t.Fatal(err)
	}
	if err := idx.Remove(ctx, id); !errors.Is(err, act.ErrUnknownPolygon) {
		t.Fatalf("double Remove: %v", err)
	}
	if err := idx.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	var sparse bytes.Buffer
	if _, err := idx.WriteTo(&sparse); err != nil {
		t.Fatalf("WriteTo with id-space holes: %v", err)
	}
	sparseLoaded, err := act.ReadIndex(bytes.NewReader(sparse.Bytes()))
	if err != nil {
		t.Fatalf("reading sparse (v4) index: %v", err)
	}
	if got, want := sparseLoaded.Status().Build.NumPolygons, idx.Status().Build.NumPolygons; got != want {
		t.Fatalf("sparse round trip: %d live polygons, want %d", got, want)
	}

	// Cancelled contexts abort mutations before they land.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := idx.Insert(cancelled, pool[4]); !errors.Is(err, context.Canceled) {
		t.Fatalf("Insert with cancelled context: %v", err)
	}
}

// split is a lookup's answer by hit class, each class sorted.
type split struct{ trues, cands []uint32 }

func (s split) equal(o split) bool {
	return slices.Equal(s.trues, o.trues) && slices.Equal(s.cands, o.cands)
}

// refsSplit sorts AppendRefs' matches into their classes.
func refsSplit(refs []act.Match) split {
	var s split
	for _, m := range refs {
		if m.Exact {
			s.trues = append(s.trues, m.ID)
		} else {
			s.cands = append(s.cands, m.ID)
		}
	}
	slices.Sort(s.trues)
	slices.Sort(s.cands)
	return s
}

// TestAppendRefsAfterMutation holds the AppendRefs forward to Lookup's split
// on a mutated index — after inserts and removals, and after a compaction
// that leaves a residual — with true hits appended before candidates, and
// both reads allocation-free with a reused Result or dst. The index is
// census-600 at 60 m, without background compaction and with a snapshot
// path on a gated filesystem (see gateFS); the inserts are blocks of a
// second census draw.
func TestAppendRefsAfterMutation(t *testing.T) {
	ctx := context.Background()
	base, err := data.CensusBlocks(1, 600)
	if err != nil {
		t.Fatal(err)
	}
	more, err := data.CensusBlocks(7, 60)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := data.GeneratePoints(data.PointConfig{N: 4096, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snapDir := filepath.Join(dir, "snap")
	if err := os.Mkdir(snapDir, 0o755); err != nil {
		t.Fatal(err)
	}
	gate := &gateFS{dir: snapDir, reached: make(chan struct{}), release: make(chan struct{})}
	ix, err := act.New(base.Polygons, act.WithPrecision(60), act.WithDeltaThreshold(-1),
		act.WithWAL(act.WALConfig{Path: filepath.Join(dir, "ix.wal"), SnapshotPath: filepath.Join(snapDir, "ix.act"), Policy: act.SyncOff, FS: gate}))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	check := func(when string) {
		t.Helper()
		var res act.Result
		var refs []act.Match
		sawTrue, sawCand := false, false
		for _, ll := range pts {
			mustLookup(t, ix, ll, act.Approximate, &res)
			refs = ix.AppendRefs(ll, refs[:0])
			want := make([]act.Match, 0, res.Total())
			for _, id := range res.True {
				want = append(want, act.Match{ID: id, Exact: true})
			}
			for _, id := range res.Candidates {
				want = append(want, act.Match{ID: id})
			}
			if !slices.Equal(refs, want) {
				t.Fatalf("%s: AppendRefs(%v) = %v, Lookup splits %v/%v", when, ll, refs, res.True, res.Candidates)
			}
			sawTrue = sawTrue || len(res.True) > 0
			sawCand = sawCand || len(res.Candidates) > 0
		}
		if !sawTrue || !sawCand {
			t.Fatalf("%s: the points never met both classes (true %v, candidate %v)", when, sawTrue, sawCand)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			for _, ll := range pts[:256] {
				ix.Lookup(ll, act.Approximate, &res)
			}
		}); allocs != 0 {
			t.Errorf("%s: Lookup allocates %.1f per 256-point run", when, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			for _, ll := range pts[:256] {
				refs = ix.AppendRefs(ll, refs[:0])
			}
		}); allocs != 0 {
			t.Errorf("%s: AppendRefs allocates %.1f per 256-point run", when, allocs)
		}
	}

	var inserted []uint32
	for _, p := range more.Polygons[:10] {
		id, err := ix.Insert(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, id)
	}
	for _, id := range []uint32{3, inserted[4]} {
		if err := ix.Remove(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	check("10 inserts and 2 removals")

	gate.armed.Store(true)
	done := make(chan error, 1)
	go func() { done <- ix.Compact(ctx) }()
	<-gate.reached
	var errs []error
	for _, p := range more.Polygons[10:13] {
		_, err := ix.Insert(ctx, p)
		errs = append(errs, err)
	}
	errs = append(errs, ix.Remove(ctx, inserted[0]), ix.Remove(ctx, 5))
	close(gate.release)
	if err := errors.Join(append(errs, <-done)...); err != nil {
		t.Fatal(err)
	}
	if st := ix.Status(); st.DeltaPolygons != 3 || st.Tombstones != 2 || st.Compactions != 1 {
		t.Fatalf("the held compaction left no residual of 3 inserts and 2 removals: %+v", st)
	}
	check("a compaction with a residual")
}

// TestAppendRefsConcurrent reads through AppendRefs, with its pooled Result,
// and through Lookup beside a writer that inserts, removes and compacts far
// from the readers' points: every answer is the one read before the writer
// started. The base is a lattice of squares at 250 m, the points are drawn
// over it.
func TestAppendRefsConcurrent(t *testing.T) {
	ctx := context.Background()
	var polys []*act.Polygon
	for i := range 64 {
		polys = append(polys, square(40+0.02*float64(i/8), -74+0.02*float64(i%8), 0.008))
	}
	ix, err := act.New(polys, act.WithPrecision(250), act.WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	pts := make([]act.LatLng, 512)
	for i := range pts {
		pts[i] = act.LatLng{Lat: 39.99 + 0.16*rng.Float64(), Lng: -74.01 + 0.16*rng.Float64()}
	}
	want := make([]split, len(pts))
	var res act.Result
	for i, ll := range pts {
		mustLookup(t, ix, ll, act.Approximate, &res)
		want[i] = split{sorted(res.True), sorted(res.Candidates)}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res act.Result
			var refs []act.Match
			for pass := 0; ; pass++ {
				for i, ll := range pts {
					var got split
					if (i+r)%2 == 0 {
						refs = ix.AppendRefs(ll, refs[:0])
						got = refsSplit(refs)
					} else {
						if _, err := ix.Lookup(ll, act.Approximate, &res); err != nil {
							t.Error(err)
							return
						}
						got = split{sorted(res.True), sorted(res.Candidates)}
					}
					if !got.equal(want[i]) {
						t.Errorf("reader %d, pass %d, point %d: %v/%v, want %v/%v", r, pass, i, got.trues, got.cands, want[i].trues, want[i].cands)
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	// The writer's squares lie on the equator, far from the census area.
	for i := range 24 {
		id, err := ix.Insert(ctx, square(0.5*float64(i%8), 10, 0.1))
		if err != nil {
			t.Error(err)
			break
		}
		if i%3 == 0 {
			err = ix.Remove(ctx, id)
		}
		if err == nil && i%8 == 7 {
			err = ix.Compact(ctx)
		}
		if err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
