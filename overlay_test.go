package act

// Index-level checks of the delta layer: a removal publishes a new overlay
// over the previous trie, IsDelta follows the live-id set, and exact
// lookups refine delta polygons against the epoch's geometry store.

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"github.com/actindex/act/internal/delta"
)

// overlayTrie returns the address of ov's delta trie (0 for none).
func overlayTrie(ov *delta.Overlay) uintptr {
	return reflect.ValueOf(ov).Elem().FieldByName("trie").Pointer()
}

func TestRemoveSharesOverlayTrie(t *testing.T) {
	ctx := context.Background()
	ix, err := New([]*Polygon{recordSquare(0), recordSquare(1)}, WithPrecision(250), WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	a, err := ix.Insert(ctx, recordSquare(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ix.Insert(ctx, recordSquare(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint32{a, 0} { // a delta id, then a base id
		before := ix.live.Load().ov
		if err := ix.Remove(ctx, id); err != nil {
			t.Fatal(err)
		}
		after := ix.live.Load().ov
		if after == before || overlayTrie(before) == 0 || overlayTrie(after) != overlayTrie(before) {
			t.Fatalf("removing %d rebuilt the delta trie (%#x → %#x)", id, overlayTrie(before), overlayTrie(after))
		}
	}
	if ix.IsDelta(a) || !ix.IsDelta(b) || ix.IsDelta(0) || ix.IsDelta(1) || ix.IsDelta(99) {
		t.Fatalf("IsDelta: removed delta %v, live delta %v, removed base %v, live base %v, unassigned %v",
			ix.IsDelta(a), ix.IsDelta(b), ix.IsDelta(0), ix.IsDelta(1), ix.IsDelta(99))
	}
}

// TestExactLookupDeltaGeometry: an exact lookup refines a delta polygon's
// candidates against that polygon's own geometry, and a removed id — base
// or delta — matches in neither mode.
func TestExactLookupDeltaGeometry(t *testing.T) {
	ctx := context.Background()
	ix, err := New([]*Polygon{recordSquare(0), recordSquare(1)}, WithPrecision(250), WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	// recordSquare(i) spans ±0.1° around 10+0.5i; 0.0001° (~11 m) past an
	// edge is outside the polygon but inside its covering's boundary cells.
	inside := func(i int) LatLng { c := 10 + 0.5*float64(i); return LatLng{Lat: c, Lng: c} }
	near := func(i int) LatLng { c := 10 + 0.5*float64(i); return LatLng{Lat: c + 0.1001, Lng: c} }
	var res Result
	reports := func(ll LatLng, mode JoinMode, id uint32) bool {
		mustLookup(t, ix, ll, mode, &res)
		return slices.Contains(res.True, id) || slices.Contains(res.Candidates, id)
	}

	d, err := ix.Insert(ctx, recordSquare(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reports(inside(2), Exact, d) || !reports(near(2), Approximate, d) || reports(near(2), Exact, d) {
		t.Fatal("the delta polygon is not refined against its own geometry")
	}
	if !reports(inside(0), Exact, 0) || reports(inside(0), Exact, d) || reports(inside(2), Exact, 0) {
		t.Fatal("a point matched a polygon that does not contain it")
	}

	for _, id := range []uint32{0, d} {
		if err := ix.Remove(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{0, 2} {
		for _, mode := range []JoinMode{Approximate, Exact} {
			if reports(inside(i), mode, 0) || reports(inside(i), mode, d) || reports(near(i), mode, d) {
				t.Fatalf("a removed polygon matched in mode %v: %v/%v", mode, res.True, res.Candidates)
			}
		}
	}
	if !reports(inside(1), Exact, 1) {
		t.Fatal("a live base polygon stopped matching")
	}
}
