package act_test

// The lifecycle differential: every mutable index — built by New or
// resurrected by Recover from New's own WriteTo — goes through the one write
// path (stage → publish, compactLocked), so the same schedule of mutations
// and compactions must leave both in the same state, down to the bytes they
// serialize to.

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/data"
)

// TestLifecycleDifferential drives one seeded schedule of inserts, removes
// of base and of delta ids, and compactions through an index built by New
// and through the Recover of its WriteTo, and compares the two after every
// Compact: Lookup, AppendRefs, LookupBatch, PairsContext in both modes,
// the live count and mutation layer of Status, and the WriteTo bytes.
//
// When New-built indexes still compacted by re-covering their retained
// source polygons, the two differed on neighbourhoods by a few hundred
// bytes: the epoch rebuild hands equal sibling runs back as their parent
// cell, a fresh merge of the coverings does not.
func TestLifecycleDifferential(t *testing.T) {
	hoods, err := data.Neighborhoods(1)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := data.CensusBlocks(1, 160)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		polys []*act.Polygon
		eps   float64
		opts  []act.Option
	}{
		{"neighborhoods-30m", hoods.Polygons, 30, nil},
		{"blocks-no-geometry", blocks.Polygons, 60, []act.Option{act.WithGeometryStore(false)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name == "neighborhoods-30m" {
				t.Skip("builds a 9 MB index")
			}
			// The tail of the set arrives as live inserts.
			nBase := len(tc.polys) - 24
			opts := append([]act.Option{act.WithDeltaThreshold(-1), act.WithPrecision(tc.eps)}, tc.opts...)
			built, err := act.New(tc.polys[:nBase], opts...)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			snap := filepath.Join(dir, "ix.act")
			if err := os.WriteFile(snap, serialize(t, built), 0o644); err != nil {
				t.Fatal(err)
			}
			recovered, err := act.Recover(snap, filepath.Join(dir, "ix.wal"), act.WithDeltaThreshold(-1))
			if err != nil {
				t.Fatal(err)
			}
			defer recovered.Close()

			pts, err := data.GeneratePoints(data.PointConfig{N: 3000, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			rng := rand.New(rand.NewSource(21))
			pending := tc.polys[nBase:]
			alive := make([]uint32, nBase)
			for i := range alive {
				alive[i] = uint32(i)
			}
			for round := 0; round < 3; round++ {
				var fresh []uint32
				for i := 0; i < 8; i++ {
					var ids [2]uint32
					for k, ix := range []*act.Index{built, recovered} {
						if ids[k], err = ix.Insert(ctx, pending[0]); err != nil {
							t.Fatalf("round %d: insert: %v", round, err)
						}
					}
					if ids[0] != ids[1] {
						t.Fatalf("round %d: the same insert got ids %d and %d", round, ids[0], ids[1])
					}
					pending = pending[1:]
					fresh = append(fresh, ids[0])
				}
				// Remove five base (or long-compacted) ids and two of this
				// round's delta ids.
				var doomed []uint32
				for i := 0; i < 5; i++ {
					k := rng.Intn(len(alive))
					doomed = append(doomed, alive[k])
					alive = append(alive[:k], alive[k+1:]...)
				}
				doomed = append(doomed, fresh[1], fresh[6])
				for _, id := range fresh {
					if !slices.Contains(doomed, id) {
						alive = append(alive, id)
					}
				}
				for _, id := range doomed {
					for _, ix := range []*act.Index{built, recovered} {
						if err := ix.Remove(ctx, id); err != nil {
							t.Fatalf("round %d: remove %d: %v", round, id, err)
						}
					}
				}
				if a, b := layerOf(built), layerOf(recovered); a != b || a.delta+a.tombstones == 0 {
					t.Fatalf("round %d: before compaction: built %+v, recovered %+v", round, a, b)
				}
				for _, ix := range []*act.Index{built, recovered} {
					if err := ix.Compact(ctx); err != nil {
						t.Fatalf("round %d: compact: %v", round, err)
					}
					if got := ix.Status().Build.AchievedPrecisionMeters; got > tc.eps {
						t.Fatalf("round %d: achieved precision %.3f m > ε = %v m", round, got, tc.eps)
					}
				}
				compareIndexes(t, round, built, recovered, pts, len(alive))
			}
		})
	}
}

// mutationLayer is the part of an index's Status that two replicas of one
// mutation history agree on.
type mutationLayer struct {
	live, delta, tombstones, threshold int
	compactions                        uint64
}

func layerOf(ix *act.Index) mutationLayer {
	st := ix.Status()
	return mutationLayer{st.Live, st.DeltaPolygons, st.Tombstones, st.Threshold, st.Compactions}
}

func serialize(t *testing.T, ix *act.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// compareIndexes demands that two freshly compacted indexes answer every
// read path alike and serialize to the same bytes.
func compareIndexes(t *testing.T, round int, a, b *act.Index, pts []act.LatLng, live int) {
	t.Helper()
	if a.Status().Live != live || b.Status().Live != live {
		t.Fatalf("round %d: NumPolygons %d and %d, want %d", round, a.Status().Live, b.Status().Live, live)
	}
	if da, db := layerOf(a), layerOf(b); da != db || da.delta+da.tombstones != 0 || da.compactions != uint64(round+1) {
		t.Fatalf("round %d: mutation layers %+v and %+v", round, da, db)
	}
	ctx := context.Background()
	var ra, rb act.Result
	var ma, mb []act.Match
	for i, p := range pts {
		if ha, hb := mustLookup(t, a, p, act.Approximate, &ra), mustLookup(t, b, p, act.Approximate, &rb); ha != hb || !reflect.DeepEqual(ra, rb) {
			t.Fatalf("round %d: Lookup(point %d) = %v %+v and %v %+v", round, i, ha, ra, hb, rb)
		}
		ma, mb = a.AppendRefs(p, ma[:0]), b.AppendRefs(p, mb[:0])
		if !reflect.DeepEqual(ma, mb) {
			t.Fatalf("round %d: AppendRefs(point %d) = %v and %v", round, i, ma, mb)
		}
	}
	ba, err := a.LookupBatch(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.LookupBatch(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ba, bb) {
		t.Fatalf("round %d: LookupBatch results differ", round)
	}
	hits := 0
	modes := []act.JoinMode{act.Approximate}
	if a.Status().HasGeometry {
		modes = append(modes, act.Exact)
	}
	for _, mode := range modes {
		pa, _, err := a.PairsContext(ctx, pts, mode, 2)
		if err != nil {
			t.Fatal(err)
		}
		pb, _, err := b.PairsContext(ctx, pts, mode, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("round %d: %v PairsContext: %d and %d pairs, or different ones", round, mode, len(pa), len(pb))
		}
		hits += len(pa)
	}
	if hits == 0 {
		t.Fatalf("round %d: no probe point hit anything; the comparison is vacuous", round)
	}
	if sa, sb := serialize(t, a), serialize(t, b); !bytes.Equal(sa, sb) {
		t.Fatalf("round %d: WriteTo bytes differ: %d and %d bytes", round, len(sa), len(sb))
	}
}
