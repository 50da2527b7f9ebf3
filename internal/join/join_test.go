package join

import (
	"testing"

	"github.com/actindex/act/internal/core"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/geostore"
	"github.com/actindex/act/internal/grid"
	"github.com/actindex/act/internal/rtree"
	"github.com/actindex/act/internal/supercover"
)

// pipeline assembles all four joiners over one polygon set.
type pipeline struct {
	g         grid.Grid
	trie      *core.Trie
	tree      *rtree.Tree
	projected []*geom.Polygon
	store     *geostore.Store
	n         int
}

func buildPipeline(t testing.TB, set *data.PolygonSet, precision float64) *pipeline {
	t.Helper()
	g := grid.NewPlanar()
	coverer, err := cover.NewCoverer(g, precision)
	if err != nil {
		t.Fatal(err)
	}
	var scb supercover.Builder
	projected := make([]*geom.Polygon, len(set.Polygons))
	tree, err := rtree.New(rtree.DefaultMaxEntries)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range set.Polygons {
		cov, err := coverer.Cover(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := scb.Add(uint32(i), cov); err != nil {
			t.Fatal(err)
		}
		_, pp, err := grid.ProjectPolygon(g, p)
		if err != nil {
			t.Fatal(err)
		}
		projected[i] = pp
		tree.Insert(pp.Bound(), uint32(i))
	}
	trie, err := core.Build(scb.Build(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	store, err := geostore.New(projected)
	if err != nil {
		t.Fatal(err)
	}
	return &pipeline{g: g, trie: trie, tree: tree, projected: projected, store: store, n: len(set.Polygons)}
}

func testData(t testing.TB) (*data.PolygonSet, []geo.LatLng) {
	t.Helper()
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "join-test", NumRegions: 30, Lattice: 96, Seed: 3,
		BoundaryJitter: 0.6, WaterFraction: 0.1, HoleFraction: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := data.GeneratePoints(data.PointConfig{N: 20000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return set, pts
}

func TestExactJoinersAgree(t *testing.T) {
	set, pts := testData(t)
	p := buildPipeline(t, set, 15)
	actExact := &ACTExact{Grid: p.g, Trie: p.trie, Store: p.store}
	rtExact := &RTree{Grid: p.g, Tree: p.tree, Polygons: p.projected}
	c1 := NewCountSink(p.n)
	s1 := RunSink(actExact, pts, c1, 1)
	c2 := NewCountSink(p.n)
	s2 := RunSink(rtExact, pts, c2, 1)
	for i := range c1.Counts {
		if c1.Counts[i] != c2.Counts[i] {
			t.Fatalf("polygon %d: act-exact count %d != rtree-exact count %d", i, c1.Counts[i], c2.Counts[i])
		}
	}
	if got, want := s1.TrueHits+s1.CandidateHits, s2.CandidateHits; got != want {
		t.Errorf("total exact pairs differ: %d vs %d", got, want)
	}
	if s1.Misses != s2.Misses {
		t.Errorf("misses differ: %d vs %d", s1.Misses, s2.Misses)
	}
}

func TestApproximateSupersetOfExact(t *testing.T) {
	set, pts := testData(t)
	p := buildPipeline(t, set, 15)
	approx := &ACT{Grid: p.g, Trie: p.trie}
	exact := &ACTExact{Grid: p.g, Trie: p.trie, Store: p.store}
	ca := NewCountSink(p.n)
	sa := RunSink(approx, pts, ca, 1)
	ce := NewCountSink(p.n)
	se := RunSink(exact, pts, ce, 1)
	for i := range ca.Counts {
		if ca.Counts[i] < ce.Counts[i] {
			t.Fatalf("polygon %d: approximate count %d < exact count %d", i, ca.Counts[i], ce.Counts[i])
		}
	}
	if sa.Pairs() < se.Pairs() {
		t.Errorf("approximate pairs %d < exact pairs %d", sa.Pairs(), se.Pairs())
	}
	// With a reasonable precision the approximation should be tight:
	// within 2% extra pairs on uniform data.
	if extra := float64(sa.Pairs()-se.Pairs()) / float64(se.Pairs()); extra > 0.02 {
		t.Errorf("approximate join reports %.2f%% extra pairs", extra*100)
	}
}

func TestRTreeBaselineSuperset(t *testing.T) {
	set, pts := testData(t)
	p := buildPipeline(t, set, 60)
	base := &RTree{Grid: p.g, Tree: p.tree}
	exact := &RTree{Grid: p.g, Tree: p.tree, Polygons: p.projected}
	cb, ce := NewCountSink(p.n), NewCountSink(p.n)
	RunSink(base, pts, cb, 1)
	RunSink(exact, pts, ce, 1)
	for i := range cb.Counts {
		if cb.Counts[i] < ce.Counts[i] {
			t.Fatalf("polygon %d: baseline count %d < exact count %d", i, cb.Counts[i], ce.Counts[i])
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	set, pts := testData(t)
	p := buildPipeline(t, set, 30)
	for _, j := range []Joiner{
		&ACT{Grid: p.g, Trie: p.trie},
		&ACTExact{Grid: p.g, Trie: p.trie, Store: p.store},
		&RTree{Grid: p.g, Tree: p.tree},
		&RTree{Grid: p.g, Tree: p.tree, Polygons: p.projected},
	} {
		serial := NewCountSink(p.n)
		ss := RunSink(j, pts, serial, 1)
		parallel := NewCountSink(p.n)
		sp := RunSink(j, pts, parallel, 4)
		for i := range serial.Counts {
			if serial.Counts[i] != parallel.Counts[i] {
				t.Fatalf("%s polygon %d: serial %d != parallel %d", j.Name(), i, serial.Counts[i], parallel.Counts[i])
			}
		}
		if ss.Pairs() != sp.Pairs() || ss.Misses != sp.Misses {
			t.Errorf("%s: stats differ between serial and parallel", j.Name())
		}
		if sp.Threads != 4 || ss.Threads != 1 {
			t.Errorf("%s: thread counts not recorded", j.Name())
		}
	}
}

func TestStatsConsistency(t *testing.T) {
	set, pts := testData(t)
	p := buildPipeline(t, set, 30)
	j := &ACT{Grid: p.g, Trie: p.trie}
	count := NewCountSink(p.n)
	st := RunSink(j, pts, count, 2)
	var sum int64
	for _, c := range count.Counts {
		sum += int64(c)
	}
	if sum != st.Pairs() {
		t.Errorf("counter sum %d != pairs %d", sum, st.Pairs())
	}
	if st.Points != len(pts) {
		t.Errorf("Points = %d, want %d", st.Points, len(pts))
	}
	if st.ThroughputMPts <= 0 {
		t.Error("throughput not computed")
	}
	if st.Joiner != "act" {
		t.Errorf("joiner name %q", st.Joiner)
	}
	if st.String() == "" {
		t.Error("empty String()")
	}
}

func TestEmptyPoints(t *testing.T) {
	set, _ := testData(t)
	p := buildPipeline(t, set, 60)
	count := NewCountSink(p.n)
	st := RunSink(&ACT{Grid: p.g, Trie: p.trie}, nil, count, 2)
	if st.Pairs() != 0 || st.Misses != 0 {
		t.Error("empty input should produce empty stats")
	}
	for _, c := range count.Counts {
		if c != 0 {
			t.Error("empty input should produce zero counts")
		}
	}
}

func TestTrueHitsDominateUniform(t *testing.T) {
	// On area-tiling polygons with uniform points, most hits must be true
	// hits — the property that lets ACT skip refinement ("covering the
	// majority of the interior area of polygons using interior cells").
	set, pts := testData(t)
	p := buildPipeline(t, set, 15)
	st := RunSink(&ACT{Grid: p.g, Trie: p.trie}, pts, NewCountSink(p.n), 1)
	if st.TrueHits < 9*st.CandidateHits {
		t.Errorf("true hits %d should dominate candidates %d", st.TrueHits, st.CandidateHits)
	}
}
