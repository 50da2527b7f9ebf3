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
	"slices"
	"testing"
	"time"

	"github.com/actindex/act"
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
