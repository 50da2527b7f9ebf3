package bench

import (
	"slices"
	"strings"
	"testing"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/grid"
	"github.com/actindex/act/internal/join"
)

// tinyConfig keeps harness smoke tests fast.
func tinyConfig() Config {
	return Config{CensusRegions: 60, Points: 20_000, Seed: 7}
}

func TestDatasets(t *testing.T) {
	sets, err := Datasets(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 3 {
		t.Fatalf("got %d datasets", len(sets))
	}
	names := []string{"boroughs", "neighborhoods", "census"}
	for i, ds := range sets {
		if ds.Set.Name != names[i] {
			t.Errorf("dataset %d name %q, want %q", i, ds.Set.Name, names[i])
		}
		if len(ds.Points) != 20_000 {
			t.Errorf("%s: %d points", ds.Set.Name, len(ds.Points))
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.CensusRegions != 4000 || c.Points != 2_000_000 || c.Seed != 42 {
		t.Errorf("defaults = %+v", c)
	}
}

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
	st := MeasureJoin(&join.RTree{Grid: bl.Grid, Tree: bl.Tree}, pts, len(set.Polygons), 1, 2)
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
	sStd := MeasureJoin(&join.ACT{Grid: std.Grid, Trie: std.Trie}, pts, len(set.Polygons), 1, 1)
	sStr := MeasureJoin(&join.ACT{Grid: stripped.Grid, Trie: stripped.Trie}, pts, len(set.Polygons), 1, 1)
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
		st := MeasureJoin(&join.ACT{Grid: p.Grid, Trie: p.Trie}, pts, len(set.Polygons), 1, 1)
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
	st := MeasureJoin(&join.ACT{Grid: cf.Grid, Trie: cf.Trie}, pts, len(set.Polygons), 1, 1)
	if diff := st.Pairs() - sStd.Pairs(); diff > 50 || diff < -50 {
		t.Errorf("cubeface pairs %d too far from planar %d", st.Pairs(), sStd.Pairs())
	}
}

func TestExperimentRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test is slow")
	}
	cfg := tinyConfig()
	var sb strings.Builder
	if err := RunTableI(&sb, cfg); err != nil {
		t.Fatalf("table1: %v", err)
	}
	if !strings.Contains(sb.String(), "Table I") || !strings.Contains(sb.String(), "census") {
		t.Error("table1 output incomplete")
	}
	sb.Reset()
	fig3, err := RunFig3(&sb, cfg)
	if err != nil {
		t.Fatalf("fig3: %v", err)
	}
	if !strings.Contains(sb.String(), "ACT-4m/R-tree") {
		t.Error("fig3 output incomplete")
	}
	// 3 datasets × (3 precisions + baseline) measurements.
	if len(fig3) != 12 {
		t.Errorf("fig3 produced %d records, want 12", len(fig3))
	}
	for _, r := range fig3 {
		if r.Experiment != "fig3" || r.MPtsPerSec <= 0 || r.Threads != 1 {
			t.Errorf("bad fig3 record %+v", r)
		}
	}
	sb.Reset()
	scale, err := RunScale(&sb, cfg, []int{1, 2})
	if err != nil {
		t.Fatalf("scale: %v", err)
	}
	if !strings.Contains(sb.String(), "thread scaling") {
		t.Error("scale output incomplete")
	}
	// 3 datasets × 2 load modes × 2 thread counts. RunScale itself asserts
	// heap/mmap pair-count equivalence.
	if len(scale) != 12 {
		t.Errorf("scale produced %d records, want 12", len(scale))
	}
	modes := map[string]int{}
	for _, r := range scale {
		if r.Experiment != "scale" || r.Joiner != "act" || r.MPtsPerSec <= 0 {
			t.Errorf("bad scale record %+v", r)
		}
		if r.LoadMillis == nil || r.ScaleX == nil || r.NumCPU < 1 {
			t.Errorf("scale record missing load/scale accounting: %+v", r)
		}
		// Faithful thread accounting: the record reports workers actually
		// run, which for these batch sizes is the requested count.
		if r.Threads != 1 && r.Threads != 2 {
			t.Errorf("scale record reports %d threads, want 1 or 2", r.Threads)
		}
		modes[r.LoadMode]++
	}
	if modes["heap"] != 6 || modes["mmap"]+modes["mmap-fallback"] != 6 {
		t.Errorf("scale load modes = %v, want 6 heap + 6 mmap", modes)
	}
}

func TestMeasureIndexJoin(t *testing.T) {
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "m", NumRegions: 6, Lattice: 48, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := act.New(set.Polygons, act.WithPrecision(30))
	if err != nil {
		t.Fatal(err)
	}
	pts, _ := data.GeneratePoints(data.PointConfig{N: 3000, Seed: 10})
	st, err := MeasureIndexJoin(idx, pts, act.Approximate, 1, 2)
	if err != nil || st.ThroughputMPts <= 0 || st.Points != len(pts) {
		t.Errorf("stats = %+v, err = %v", st, err)
	}
}
