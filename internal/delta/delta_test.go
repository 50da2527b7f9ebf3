package delta

// Overlay-level unit tests on real coverings: snapshot immutability, the
// tombstone/trie split of a removed delta polygon, Rebase residuals, and the merge
// helpers' suffix discipline.

import (
	"testing"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/core"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/geostore"
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

func TestOverlayInsertRemoveRebase(t *testing.T) {
	f := newFixture(t, 10)

	var o *Overlay // nil = empty
	if o.Pending() != 0 || o.Tombstoned(10) || o.HasPolygon(10) {
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

	// Removing a delta polygon drops it from the trie AND tombstones it.
	o3, err := New(16, []Poly{f.polys[1]}, map[uint32]uint64{10: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := lookupIDs(t, o3, f.leaves[0]); len(got) != 0 {
		t.Fatalf("removed delta polygon still matches: %v", got)
	}
	if !o3.Tombstoned(10) || o3.HasPolygon(10) {
		t.Fatal("removed delta polygon should be tombstoned and gone")
	}
	if o3.NumPolygons() != 1 || o3.NumTombstones() != 1 || o3.Pending() != 2 {
		t.Fatalf("counts: %d polys, %d tombs", o3.NumPolygons(), o3.NumTombstones())
	}
	// Removing a base id only tombstones.
	o4, err := New(16, o3.Polys(), map[uint32]uint64{10: 3, 2: 4})
	if err != nil {
		t.Fatal(err)
	}
	var res core.Result
	res.True = append(res.True, 2, 3)
	res.Candidates = append(res.Candidates, 10, 4)
	o4.Merge(f.leaves[2], &res)
	if len(res.True) != 1 || res.True[0] != 3 || len(res.Candidates) != 1 || res.Candidates[0] != 4 {
		t.Fatalf("tombstone filter left %v/%v", res.True, res.Candidates)
	}

	// Rebase at seq 3: the polygon inserted at seq 2 and tombstones ≤ 3
	// are baked in; only the seq-4 tombstone survives.
	resid, err := o4.Rebase(3)
	if err != nil {
		t.Fatal(err)
	}
	if resid.NumPolygons() != 0 || resid.NumTombstones() != 1 || !resid.Tombstoned(2) {
		t.Fatalf("residual: %d polys, %d tombs", resid.NumPolygons(), resid.NumTombstones())
	}
	// Rebase past everything collapses to nil.
	if r, err := o4.Rebase(99); err != nil || r != nil {
		t.Fatalf("full rebase: %v, %v", r, err)
	}
}

func TestOverlayMergeSuffixDiscipline(t *testing.T) {
	f := newFixture(t, 5)
	o, err := New(16, []Poly{f.polys[0]}, map[uint32]uint64{1: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Entries before `from` belong to the caller — even when they carry a
	// tombstoned id, they must survive.
	refs := []core.Match{{ID: 1}, {ID: 9}}
	refs = o.MergeRefs(f.leaves[0], append(refs, core.Match{ID: 1, Exact: true}, core.Match{ID: 2}), 2)
	if len(refs) != 4 || refs[0].ID != 1 || refs[1].ID != 9 || refs[2].ID != 2 || refs[3].ID != 5 {
		t.Fatalf("MergeRefs = %v, want ids [1 9 2 5]", refs)
	}
}

func TestOverlayResolveRouting(t *testing.T) {
	f := newFixture(t, 1)
	// Base store holds polygon 0 = the first square; overlay holds id 1 =
	// the second square as a delta polygon.
	base := geostore.NewSparse([]*geom.Polygon{f.polys[0].Geom}, nil)
	p := f.polys[1]
	p.ID = 1
	o, err := (*Overlay)(nil).WithInsert(16, p)
	if err != nil {
		t.Fatal(err)
	}
	inside0 := geo.LatLng{Lat: 40.71, Lng: -73.99}
	inside1 := geo.LatLng{Lat: 40.81, Lng: -73.89}
	g := grid.NewPlanar()
	_, pt0 := g.Project(inside0)
	_, pt1 := g.Project(inside1)

	if got := o.Resolve(base, pt0, []uint32{0, 1}, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("pt0 resolved %v, want [0]", got)
	}
	if got := o.Resolve(base, pt1, []uint32{0, 1}, nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("pt1 resolved %v, want [1]", got)
	}
	if got := o.Resolve(base, pt0, []uint32{1}, nil); len(got) != 0 {
		t.Fatalf("delta id resolved against the base store: %v", got)
	}
	// Tombstoned base ids resolve to nothing even if handed in.
	o2, err := New(16, o.Polys(), map[uint32]uint64{0: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := o2.Resolve(base, pt0, []uint32{0}, nil); len(got) != 0 {
		t.Fatalf("tombstoned id resolved: %v", got)
	}
}
