package act_test

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/actindex/act"
)

// TestReadPathParity: every read entry point runs the same probe — leaf
// cell, trie walk, overlay merge, refinement in Exact mode — so on one
// mutated index (delta polygons, tombstones of a base and of a delta id)
// the scalar lookups, LookupBatch and the three joins must report the same
// pairs. The batch sizes straddle every boundary the batch paths have: the
// engine's minimum chunk (1024), a run of four of them (4096) and the
// capacity of the packed sort keys (65 536).
func TestReadPathParity(t *testing.T) {
	ctx := context.Background()
	for _, gk := range []act.GridKind{act.PlanarGrid, act.CubeFaceGrid} {
		rng := rand.New(rand.NewSource(2200 + int64(gk)))
		pool := randPolygonSet(rng)
		for len(pool) < 9 {
			pool = append(pool, randPolygonSet(rng)...)
		}
		idx, err := act.New(pool[:4], act.WithPrecision(250), act.WithGrid(gk), act.WithDeltaThreshold(-1))
		if err != nil {
			t.Fatal(err)
		}
		var deltaIDs []uint32
		for _, p := range pool[4:] {
			id, err := idx.Insert(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			deltaIDs = append(deltaIDs, id)
		}
		for _, id := range []uint32{1, deltaIDs[0]} {
			if err := idx.Remove(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
		if ds := idx.Status(); ds.DeltaPolygons+ds.Tombstones == 0 {
			t.Fatalf("%v: no overlay to merge: %+v", gk, ds)
		}

		// The scalar lookups are the reference: approximate results as they
		// come, exact ids classed by whether the trie alone established them.
		all := randPoints(rng, pool, 65537)
		approx := make([]act.Result, len(all))
		want := map[act.JoinMode][]act.Pair{}
		var res act.Result
		for i, ll := range all {
			mustLookup(t, idx, ll, act.Approximate, &res)
			approx[i] = act.Result{True: slices.Clone(res.True), Candidates: slices.Clone(res.Candidates)}
			for _, id := range res.True {
				want[act.Approximate] = append(want[act.Approximate], act.Pair{Point: i, Polygon: id, Class: act.TrueHit})
			}
			for _, id := range res.Candidates {
				want[act.Approximate] = append(want[act.Approximate], act.Pair{Point: i, Polygon: id, Class: act.Candidate})
			}
			mustLookup(t, idx, ll, act.Exact, &res)
			for _, id := range res.True {
				class := act.Candidate
				if slices.Contains(approx[i].True, id) {
					class = act.TrueHit
				}
				want[act.Exact] = append(want[act.Exact], act.Pair{Point: i, Polygon: id, Class: class})
			}
		}
		for _, pairs := range want {
			sortPairs(pairs)
		}
		if len(want[act.Exact]) == 0 || len(want[act.Exact]) == len(want[act.Approximate]) {
			t.Fatalf("%v: fixture refines nothing: %d exact pairs, %d approximate", gk, len(want[act.Exact]), len(want[act.Approximate]))
		}

		for _, n := range []int{1, 1023, 1024, 1025, 4096, 4097, 65536, 65537} {
			pts := all[:n]
			batch, err := idx.LookupBatch(ctx, pts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range batch {
				if !batch[i].Equal(&approx[i]) {
					t.Fatalf("%v n=%d: LookupBatch[%d] = %+v, Lookup %+v", gk, n, i, batch[i], approx[i])
				}
			}
			for _, mode := range []act.JoinMode{act.Approximate, act.Exact} {
				// Pairs are sorted by point, so the first n points' pairs
				// are a prefix.
				wantPairs := want[mode]
				wantPairs = wantPairs[:sort.Search(len(wantPairs), func(k int) bool { return wantPairs[k].Point >= n })]
				wantCounts := make([]uint64, len(pool))
				for _, p := range wantPairs {
					wantCounts[p.Polygon]++
				}
				for _, threads := range []int{1, 4} {
					pairs, pst, err := idx.PairsContext(ctx, pts, mode, threads)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(pairs, wantPairs) {
						t.Fatalf("%v n=%d %v %dT: PairsContext differs from the scalar lookups (%d pairs, want %d)",
							gk, n, mode, threads, len(pairs), len(wantPairs))
					}
					var streamed []act.Pair
					sst, err := idx.JoinStreamContext(ctx, pts, mode, threads, func(p act.Pair) { streamed = append(streamed, p) })
					if err != nil {
						t.Fatal(err)
					}
					sortPairs(streamed)
					if !slices.Equal(streamed, wantPairs) {
						t.Fatalf("%v n=%d %v %dT: JoinStreamContext differs from the scalar lookups (%d pairs, want %d)",
							gk, n, mode, threads, len(streamed), len(wantPairs))
					}
					counts, cst, err := idx.JoinContext(ctx, pts, mode, threads)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(counts, wantCounts) {
						t.Fatalf("%v n=%d %v %dT: JoinContext counts %v, want %v", gk, n, mode, threads, counts, wantCounts)
					}
					for _, st := range []act.JoinStats{pst, sst, cst} {
						if st.Points != n || st.Pairs() != int64(len(wantPairs)) || st.TrueHits != pst.TrueHits || st.Misses != pst.Misses {
							t.Fatalf("%v n=%d %v %dT: stats %+v disagree with %d pairs / %+v", gk, n, mode, threads, st, len(wantPairs), pst)
						}
					}
				}
			}
		}
	}
}

func sortPairs(pairs []act.Pair) {
	slices.SortFunc(pairs, func(a, b act.Pair) int {
		if a.Point != b.Point {
			return a.Point - b.Point
		}
		if a.Polygon != b.Polygon {
			return int(a.Polygon) - int(b.Polygon)
		}
		return int(a.Class) - int(b.Class)
	})
}
