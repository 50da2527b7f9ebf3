// Geofencing: the connected-mobility use case from the paper's
// introduction. A ride-hailing service keeps a static set of product and
// pricing zones; each incoming ride request must be mapped to its zones
// with sub-millisecond latency to pick the offered products and the surge
// multiplier.
//
// Streaming points cannot be indexed — the polygons are indexed instead,
// and each request costs one trie lookup.
//
//	go run ./examples/geofencing
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/data"
)

// zone models a product/pricing area.
type zone struct {
	name  string
	surge float64
	pool  bool // whether the shared-ride product is offered
}

func main() {
	// Generate a city partition to act as the zone map: 60 pricing zones
	// over NYC with organic boundaries.
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "zones", NumRegions: 60, Lattice: 256, Seed: 7, BoundaryJitter: 0.7,
	})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	zones := make([]zone, len(set.Polygons))
	for i := range zones {
		zones[i] = zone{
			name:  fmt.Sprintf("zone-%02d", i),
			surge: 1 + float64(rng.Intn(8))/4, // 1.0x .. 2.75x
			pool:  rng.Intn(3) > 0,
		}
	}

	// GPS fixes are good to ~5 m under open sky; a 15 m bound keeps
	// zone decisions well within sensor noise while keeping the index
	// small (paper §I).
	idx, err := act.New(set.Polygons, act.WithPrecision(15))
	if err != nil {
		log.Fatal(err)
	}
	st := idx.Status().Build
	fmt.Printf("zone index: %d zones, %.1f MB, ε=%.0fm\n\n",
		st.NumPolygons, float64(st.TotalBytes())/1e6, idx.PrecisionMeters())

	// Simulate a burst of ride requests clustered around hotspots.
	requests, err := data.GeneratePoints(data.PointConfig{
		N: 200_000, Seed: 9, Distribution: data.Clustered, Hotspots: 12,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Process the burst through the streaming join engine: the batch is
	// joined in cell-sorted chunks over all cores, and every (request,
	// zone) pair is streamed to the callback. A request on a zone boundary
	// (candidate) may match several zones; taking the maximum surge is the
	// conservative business rule and needs no exact refinement — the whole
	// point of the approximate join.
	surgeByRequest := make([]float64, len(requests))
	stats, err := idx.JoinStreamContext(context.Background(), requests, act.Approximate, 0, func(p act.Pair) {
		if z := zones[p.Polygon]; z.surge > surgeByRequest[p.Point] {
			surgeByRequest[p.Point] = z.surge
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	var matched, surged int
	for _, surge := range surgeByRequest {
		if surge > 0 {
			matched++
		}
		if surge > 1 {
			surged++
		}
	}
	fmt.Printf("processed %d requests in %v (%.2f M req/s, %d pairs)\n",
		stats.Points, stats.Elapsed.Round(time.Millisecond),
		stats.ThroughputMPts, stats.Pairs())
	fmt.Printf("in service area: %d (%.1f%%), surged: %d\n\n",
		matched, 100*float64(matched)/float64(len(requests)), surged)

	// Show a few individual decisions via the single-point lookup path —
	// the same index serves streaming batches and point queries.
	var res act.Result
	fmt.Println("sample decisions:")
	for _, ll := range requests[:5] {
		// Only Exact mode can fail, on an index without geometry.
		if hit, _ := idx.Lookup(ll, act.Approximate, &res); !hit {
			fmt.Printf("  %v -> outside service area\n", ll)
			continue
		}
		id := uint32(0)
		certain := "certain"
		if len(res.True) > 0 {
			id = res.True[0]
		} else {
			id = res.Candidates[0]
			certain = fmt.Sprintf("within %gm", idx.PrecisionMeters())
		}
		z := zones[id]
		fmt.Printf("  %v -> %s (%s): surge %.2fx, pool=%v\n", ll, z.name, certain, z.surge, z.pool)
	}
}
