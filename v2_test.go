package act

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"github.com/actindex/act/internal/data"
)

// v2TestIndex builds a small polygon set and point batch shared by the
// API-surface tests.
func v2TestIndex(t *testing.T, numPoints int, opts ...Option) (*Index, []LatLng) {
	t.Helper()
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "v2", NumRegions: 12, Lattice: 64, Seed: 301, BoundaryJitter: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(set.Polygons, append([]Option{WithPrecision(15)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := data.GeneratePoints(data.PointConfig{N: numPoints, Seed: 302})
	if err != nil {
		t.Fatal(err)
	}
	return idx, pts
}

// TestGridKindRoundTrip checks the satellite fix: the grid kind is carried
// on the Index and persisted directly, not inferred from the grid's name.
func TestGridKindRoundTrip(t *testing.T) {
	for _, gk := range []GridKind{PlanarGrid, CubeFaceGrid} {
		idx, _ := v2TestIndex(t, 1, WithGrid(gk))
		if idx.GridKind() != gk {
			t.Fatalf("GridKind = %v, want %v", idx.GridKind(), gk)
		}
		var buf bytes.Buffer
		if _, err := idx.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadIndex(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.GridKind() != gk {
			t.Errorf("loaded GridKind = %v, want %v", loaded.GridKind(), gk)
		}
	}
	// An index holding an unknown kind refuses to serialize rather than
	// silently writing a kind the reader would misinterpret.
	idx, _ := v2TestIndex(t, 1)
	idx.kind = GridKind(9)
	if _, err := idx.WriteTo(&bytes.Buffer{}); err == nil {
		t.Error("WriteTo with unknown grid kind should fail")
	}
}

// TestLookupBatchParity pins the batch API to per-point Lookup: identical
// results in input order, through the cell-sorted fast path.
func TestLookupBatchParity(t *testing.T) {
	idx, pts := v2TestIndex(t, 20000)
	results, err := idx.LookupBatch(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(pts) {
		t.Fatalf("got %d results for %d points", len(results), len(pts))
	}
	var res Result
	for i, ll := range pts {
		mustLookup(t, idx, ll, Approximate, &res)
		if !slices.Equal(results[i].True, res.True) || !slices.Equal(results[i].Candidates, res.Candidates) {
			t.Fatalf("point %d: batch %v/%v, lookup %v/%v",
				i, results[i].True, results[i].Candidates, res.True, res.Candidates)
		}
	}
}

// TestLookupBatchEdgeCases covers the empty batch, an all-miss batch, and a
// pre-cancelled context.
func TestLookupBatchEdgeCases(t *testing.T) {
	idx, _ := v2TestIndex(t, 1)
	results, err := idx.LookupBatch(context.Background(), nil)
	if err != nil || len(results) != 0 {
		t.Errorf("empty batch: %v, %v", results, err)
	}
	// Points far outside the NYC-like bound: every result must be empty.
	miss := make([]LatLng, 5000)
	for i := range miss {
		miss[i] = LatLng{Lat: -33.86 + float64(i%100)*0.001, Lng: 151.21}
	}
	results, err = idx.LookupBatch(context.Background(), miss)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Total() != 0 {
			t.Fatalf("all-miss batch: point %d matched %v/%v", i, r.True, r.Candidates)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := idx.LookupBatch(ctx, miss); err != context.Canceled {
		t.Errorf("cancelled LookupBatch: err = %v", err)
	}
}

// TestJoinContextCancellation cancels a join mid-run: the engine must stop
// claiming chunks and return ctx.Err() well before the census-scale input
// is exhausted.
func TestJoinContextCancellation(t *testing.T) {
	idx, pts := v2TestIndex(t, 1<<18)
	ctx, cancel := context.WithCancel(context.Background())
	pairs := 0
	stats, err := idx.JoinStreamContext(ctx, pts, Approximate, 1, func(Pair) {
		pairs++
		cancel() // abort as soon as the first chunk starts delivering
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Points >= len(pts) {
		t.Errorf("joined all %d points despite cancellation", stats.Points)
	}
	if pairs == 0 {
		t.Error("expected at least one pair before cancellation")
	}

	// A pre-cancelled context joins nothing, across all variants.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	counts, stats, err := idx.JoinContext(ctx2, pts, Approximate, 4)
	if err != context.Canceled || stats.Points != 0 {
		t.Errorf("JoinContext pre-cancelled: err=%v points=%d", err, stats.Points)
	}
	for id, c := range counts {
		if c != 0 {
			t.Fatalf("polygon %d counted %d pairs under pre-cancelled context", id, c)
		}
	}
	ps, stats, err := idx.PairsContext(ctx2, pts, Exact, 2)
	if err != context.Canceled || len(ps) != 0 || stats.Points != 0 {
		t.Errorf("PairsContext pre-cancelled: err=%v pairs=%d points=%d", err, len(ps), stats.Points)
	}
}

// TestJoinContextComplete checks the uncancelled context path: every point
// is joined, no error is reported, and the counts do not depend on the
// thread count.
func TestJoinContextComplete(t *testing.T) {
	idx, pts := v2TestIndex(t, 20000)
	c1, s1, err := idx.JoinContext(context.Background(), pts, Approximate, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, s2, err := idx.JoinContext(context.Background(), pts, Approximate, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(c1, c2) || s1.Pairs() != s2.Pairs() || s1.Points != len(pts) || s2.Points != len(pts) {
		t.Errorf("JoinContext at 1 and 2 threads diverges: %v vs %v", s1, s2)
	}
}

// TestAppendRefs pins the class-carrying variant against Lookup's split
// result: same ids, same classes, and still zero allocations — so no hot
// path ever has a reason to conflate true hits with candidates.
func TestAppendRefs(t *testing.T) {
	idx, pts := v2TestIndex(t, 10000)
	var refs []Match
	var res Result
	sawTrue, sawCand := false, false
	for _, ll := range pts {
		refs = idx.AppendRefs(ll, refs[:0])
		mustLookup(t, idx, ll, Approximate, &res)
		var trues, cands []uint32
		for _, m := range refs {
			if m.Exact {
				trues = append(trues, m.ID)
			} else {
				cands = append(cands, m.ID)
			}
		}
		slices.Sort(trues)
		slices.Sort(cands)
		wantTrue := slices.Clone(res.True)
		wantCand := slices.Clone(res.Candidates)
		slices.Sort(wantTrue)
		slices.Sort(wantCand)
		if !slices.Equal(trues, wantTrue) || !slices.Equal(cands, wantCand) {
			t.Fatalf("AppendRefs split (%v/%v) != Lookup split (%v/%v) at %v",
				trues, cands, wantTrue, wantCand, ll)
		}
		sawTrue = sawTrue || len(trues) > 0
		sawCand = sawCand || len(cands) > 0
	}
	if !sawTrue || !sawCand {
		t.Fatalf("batch never exercised both classes (true=%v cand=%v)", sawTrue, sawCand)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, ll := range pts[:256] {
			refs = idx.AppendRefs(ll, refs[:0])
		}
	})
	if allocs != 0 {
		t.Errorf("AppendRefs allocates %.1f per 256-point run", allocs)
	}
}
