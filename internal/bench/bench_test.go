package bench

import (
	"slices"
	"testing"

	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/grid"
	"github.com/actindex/act/internal/join"
)

// TestStripInteriorKeepsBoundarySorted: ablation C turns the interior cells
// into candidates, and the boundary list stays sorted as Covering requires.
func TestStripInteriorKeepsBoundarySorted(t *testing.T) {
	set, err := data.GeneratePolygons(data.PolygonConfig{Name: "s", NumRegions: 4, Lattice: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cover.NewCoverer(grid.NewPlanar(), 40)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range set.Polygons {
		cov, err := c.Cover(p)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Concat(cov.Boundary, cov.Interior)
		if slices.IsSorted(want) {
			continue // appending would have left the list sorted anyway
		}
		slices.Sort(want)
		stripInterior(cov)
		if !slices.Equal(cov.Boundary, want) || cov.Interior != nil {
			t.Fatalf("polygon %d: stripped covering not the sorted union of its cells", i)
		}
		return
	}
	t.Fatal("no polygon whose interior cells interleave with its boundary cells")
}

func TestBuildBaselineAndMeasure(t *testing.T) {
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "b", NumRegions: 10, Lattice: 48, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := BuildBaseline(set)
	if err != nil {
		t.Fatal(err)
	}
	if bl.Tree.Len() != len(set.Polygons) {
		t.Errorf("baseline indexed %d rects, want %d", bl.Tree.Len(), len(set.Polygons))
	}
	pts, err := data.GeneratePoints(data.PointConfig{N: 5000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := join.RunSink(&join.RTree{Grid: bl.Grid, Tree: bl.Tree}, pts, join.NewCountSink(len(set.Polygons)), 1)
	if st.Points != len(pts) || st.ThroughputMPts <= 0 {
		t.Errorf("measure stats = %+v", st)
	}
}

func TestRawBuildVariants(t *testing.T) {
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "raw", NumRegions: 8, Lattice: 48, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	std, err := RawBuild(set, RawOptions{Precision: 30})
	if err != nil {
		t.Fatal(err)
	}
	stripped, err := RawBuild(set, RawOptions{Precision: 30, StripInterior: true})
	if err != nil {
		t.Fatal(err)
	}
	if std.CellCount == 0 || stripped.CellCount == 0 {
		t.Fatal("empty builds")
	}
	pts, _ := data.GeneratePoints(data.PointConfig{N: 5000, Seed: 6})
	sStd := join.RunSink(&join.ACT{Grid: std.Grid, Trie: std.Trie}, pts, join.NewCountSink(len(set.Polygons)), 1)
	sStr := join.RunSink(&join.ACT{Grid: stripped.Grid, Trie: stripped.Trie}, pts, join.NewCountSink(len(set.Polygons)), 1)
	if sStr.TrueHits != 0 {
		t.Errorf("stripped build still reports %d true hits", sStr.TrueHits)
	}
	if sStd.TrueHits == 0 {
		t.Error("standard build reports no true hits")
	}
	// Total pairs agree: stripping only reclassifies.
	if sStd.Pairs() != sStr.Pairs() {
		t.Errorf("pair counts differ: %d vs %d", sStd.Pairs(), sStr.Pairs())
	}
	// Fanout and inlining variants share the grid and covering, so their
	// results must match exactly.
	for _, o := range []RawOptions{
		{Precision: 30, Fanout: 16},
		{Precision: 30, DisableInlining: true},
	} {
		p, err := RawBuild(set, o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		st := join.RunSink(&join.ACT{Grid: p.Grid, Trie: p.Trie}, pts, join.NewCountSink(len(set.Polygons)), 1)
		if st.Pairs() != sStd.Pairs() {
			t.Errorf("%+v: pairs %d, want %d", o, st.Pairs(), sStd.Pairs())
		}
	}
	// A different grid classifies boundary slivers differently, so only
	// approximate agreement is expected (within the candidate margin).
	cf, err := RawBuild(set, RawOptions{Precision: 30, Grid: grid.NewCubeFace()})
	if err != nil {
		t.Fatal(err)
	}
	st := join.RunSink(&join.ACT{Grid: cf.Grid, Trie: cf.Trie}, pts, join.NewCountSink(len(set.Polygons)), 1)
	if diff := st.Pairs() - sStd.Pairs(); diff > 50 || diff < -50 {
		t.Errorf("cubeface pairs %d too far from planar %d", st.Pairs(), sStd.Pairs())
	}
}
