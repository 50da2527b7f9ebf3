package join

import (
	"context"
	"sync/atomic"
	"testing"

	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geo"
)

// TestManyThreadsFewPoints exercises the driver when worker count exceeds
// the number of chunks (and even the number of points).
func TestManyThreadsFewPoints(t *testing.T) {
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "drv", NumRegions: 6, Lattice: 48, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := buildPipeline(t, set, 60)
	pts, err := data.GeneratePoints(data.PointConfig{N: 37, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	j := &ACT{Grid: p.g, Trie: p.trie}
	serial := NewCountSink(p.n)
	ss := RunSink(j, pts, serial, 1)
	parallel := NewCountSink(p.n)
	sp := RunSink(j, pts, parallel, 16)
	for i := range serial.Counts {
		if serial.Counts[i] != parallel.Counts[i] {
			t.Fatalf("polygon %d: %d vs %d", i, serial.Counts[i], parallel.Counts[i])
		}
	}
	if ss.Pairs() != sp.Pairs() {
		t.Error("pair counts differ")
	}
}

// TestRunSinkContextCancellation cancels a multi-threaded run mid-join:
// every worker must stop claiming chunks, the pairs already emitted must
// still be merged, and the stats must cover only the joined chunks.
func TestRunSinkContextCancellation(t *testing.T) {
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "drvctx", NumRegions: 6, Lattice: 48, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := buildPipeline(t, set, 60)
	pts, err := data.GeneratePoints(data.PointConfig{N: 1 << 17, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	j := &ACT{Grid: p.g, Trie: p.trie}

	ctx, cancel := context.WithCancel(context.Background())
	var emitted atomic.Int64
	sink := &FuncSink{Fn: func(Pair) {
		if emitted.Add(1) == 1 {
			cancel()
		}
	}}
	stats, err := RunSinkContext(ctx, j, pts, sink, 4)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Points >= len(pts) {
		t.Errorf("joined all %d points despite cancellation", stats.Points)
	}
	if chunk := chunkSizeFor(len(pts), 4); stats.Points%chunk != 0 && stats.Points != len(pts) {
		t.Errorf("joined %d points, not a whole number of chunks", stats.Points)
	}
	if got := emitted.Load(); got != stats.Pairs() {
		t.Errorf("sink saw %d pairs, stats say %d", got, stats.Pairs())
	}

	// Without cancellation, the context path matches the plain engine.
	full := NewCountSink(p.n)
	fstats, err := RunSinkContext(context.Background(), j, pts, full, 4)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewCountSink(p.n)
	pstats := RunSink(j, pts, plain, 4)
	if fstats.Pairs() != pstats.Pairs() || fstats.Points != len(pts) {
		t.Errorf("context run %v diverges from plain run %v", fstats, pstats)
	}
	for i := range full.Counts {
		if full.Counts[i] != plain.Counts[i] {
			t.Fatalf("polygon %d: %d vs %d", i, full.Counts[i], plain.Counts[i])
		}
	}
}

// TestThreadsZeroUsesGOMAXPROCS verifies the default thread selection.
func TestThreadsZeroUsesGOMAXPROCS(t *testing.T) {
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "drv0", NumRegions: 4, Lattice: 32, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := buildPipeline(t, set, 60)
	pts := []geo.LatLng{{Lat: 40.7, Lng: -74}}
	st := RunSink(&ACT{Grid: p.g, Trie: p.trie}, pts, NewCountSink(p.n), 0)
	if st.Threads < 1 {
		t.Errorf("Threads = %d", st.Threads)
	}
}

// TestPointsOutsideWorldBounds verifies strays clamp rather than crash.
func TestPointsOutsideWorldBounds(t *testing.T) {
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "drvw", NumRegions: 4, Lattice: 32, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := buildPipeline(t, set, 60)
	pts := []geo.LatLng{
		{Lat: 90, Lng: 180},
		{Lat: -90, Lng: -180},
		{Lat: 0, Lng: 0},
	}
	count := NewCountSink(p.n)
	st := RunSink(&ACT{Grid: p.g, Trie: p.trie}, pts, count, 1)
	if st.Misses != int64(len(pts)) {
		t.Errorf("expected all misses, got %+v", st)
	}
	for _, c := range count.Counts {
		if c != 0 {
			t.Error("unexpected count")
		}
	}
}
