package delta

// Overlay-level unit tests on real coverings: snapshot immutability, the
// live-id filtering of a removed delta polygon over a shared trie, and the
// merge helpers' suffix discipline.

import (
	"testing"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/core"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/grid"
)

// square returns a small geographic square polygon at (lat, lng).
func square(lat, lng, side float64) *geo.Polygon {
	return &geo.Polygon{Outer: []geo.LatLng{
		{Lat: lat, Lng: lng},
		{Lat: lat, Lng: lng + side},
		{Lat: lat + side, Lng: lng + side},
		{Lat: lat + side, Lng: lng},
	}}
}

// fixture covers three disjoint squares and returns overlay polys for them
// plus the probe leaves at their centers.
type fixture struct {
	g      grid.Grid
	polys  []Poly
	leaves []cellid.ID
}

func newFixture(t *testing.T, baseIDs uint32) *fixture {
	t.Helper()
	g := grid.NewPlanar()
	c, err := cover.NewCoverer(g, 500)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{g: g}
	for i, sq := range []*geo.Polygon{
		square(40.70, -74.00, 0.02),
		square(40.80, -73.90, 0.02),
		square(40.90, -73.80, 0.02),
	} {
		cov, err := c.Cover(sq)
		if err != nil {
			t.Fatal(err)
		}
		_, gp, err := grid.ProjectPolygon(g, sq)
		if err != nil {
			t.Fatal(err)
		}
		f.polys = append(f.polys, Poly{ID: baseIDs + uint32(i), Cov: cov, Geom: gp, Seq: uint64(i + 1)})
		center := geo.LatLng{Lat: sq.Outer[0].Lat + 0.01, Lng: sq.Outer[0].Lng + 0.01}
		f.leaves = append(f.leaves, grid.LeafCell(g, center))
	}
	return f
}

func lookupIDs(t *testing.T, o *Overlay, leaf cellid.ID) []uint32 {
	t.Helper()
	var res core.Result
	o.Merge(leaf, &res)
	return append(append([]uint32(nil), res.True...), res.Candidates...)
}

func TestOverlayInsertRemove(t *testing.T) {
	f := newFixture(t, 10)

	var o *Overlay // nil = empty
	if o.NumPolygons() != 0 || o.Polys() != nil || o.WithAlive(nil) != nil {
		t.Fatal("nil overlay should be empty")
	}
	o1, err := o.WithInsert(16, f.polys[0])
	if err != nil {
		t.Fatal(err)
	}
	o2, err := o1.WithInsert(16, f.polys[1])
	if err != nil {
		t.Fatal(err)
	}
	if got := lookupIDs(t, o2, f.leaves[0]); len(got) != 1 || got[0] != 10 {
		t.Fatalf("leaf 0 matched %v, want [10]", got)
	}
	if got := lookupIDs(t, o1, f.leaves[1]); len(got) != 0 {
		t.Fatalf("older snapshot sees newer insert: %v", got)
	}

	// Removing a delta polygon (10) and a base id (2) publishes a new live-id
	// set over the same trie: the removed polygon keeps its covering and
	// still counts as an insert, but no merged result reports it.
	alive := make([]bool, 13)
	for id := range alive {
		alive[id] = id != 10 && id != 2
	}
	o3 := o2.WithAlive(alive)
	if o3.trie != o2.trie || o3.NumPolygons() != 2 {
		t.Fatalf("a removal rebuilt the overlay: %d polygons", o3.NumPolygons())
	}
	if got := lookupIDs(t, o3, f.leaves[0]); len(got) != 0 {
		t.Fatalf("removed delta polygon still matches: %v", got)
	}
	if got := lookupIDs(t, o2, f.leaves[0]); len(got) != 1 {
		t.Fatalf("the older snapshot lost a polygon removed after it: %v", got)
	}
	var res core.Result
	res.True = append(res.True, 2, 3)
	res.Candidates = append(res.Candidates, 10, 4)
	o3.Merge(f.leaves[2], &res)
	if len(res.True) != 1 || res.True[0] != 3 || len(res.Candidates) != 1 || res.Candidates[0] != 4 {
		t.Fatalf("live-id filter left %v/%v", res.True, res.Candidates)
	}
	// An insert keeps the live-id set it is given.
	o4, err := o3.WithInsert(16, f.polys[2])
	if err != nil {
		t.Fatal(err)
	}
	if got := lookupIDs(t, o4, f.leaves[2]); len(got) != 1 || got[0] != 12 {
		t.Fatalf("leaf 2 matched %v, want [12]", got)
	}
	if got := lookupIDs(t, o4, f.leaves[0]); len(got) != 0 {
		t.Fatalf("an insert resurrected a removed polygon: %v", got)
	}
	// A removal on a clean index is an overlay of a live-id set alone.
	if o5 := (*Overlay)(nil).WithAlive(alive); o5 == nil || o5.NumPolygons() != 0 || lookupIDs(t, o5, f.leaves[0]) != nil {
		t.Fatal("a filter-only overlay should hold no polygons and match nothing")
	}
}
