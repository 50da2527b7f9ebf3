// Taxidash: the paper's evaluation workload as an application — join a
// large stream of taxi pickup points against neighborhood polygons and
// aggregate points per polygon ("count the number of points per polygon",
// §III), then report the busiest neighborhoods.
//
//	go run ./examples/taxidash
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/data"
)

func main() {
	set, err := data.Neighborhoods(42)
	if err != nil {
		log.Fatal(err)
	}

	idx, err := act.New(set.Polygons, act.WithPrecision(4))
	if err != nil {
		log.Fatal(err)
	}
	st := idx.Status().Build
	fmt.Printf("neighborhoods: %d polygons, index %.1f MB (built in %v)\n",
		st.NumPolygons, float64(st.TotalBytes())/1e6,
		(st.CoverDuration + st.MergeDuration + st.InsertDuration).Round(time.Millisecond))

	// Clustered pickups: taxi demand concentrates around hotspots.
	pickups, err := data.GeneratePoints(data.PointConfig{
		N: 3_000_000, Seed: 43, Distribution: data.Clustered, Hotspots: 25,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The approximate join counts candidates as hits; with ε = 4 m the
	// error is below GPS noise. Use all cores.
	ctx := context.Background()
	counts, stats, err := idx.JoinContext(ctx, pickups, act.Approximate, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("joined %d pickups in %v: %.1f M points/s (%d true, %d candidate, %d unmatched)\n\n",
		stats.Points, stats.Elapsed.Round(time.Millisecond), stats.ThroughputMPts,
		stats.TrueHits, stats.CandidateHits, stats.Misses)

	// Top 10 busiest neighborhoods.
	type row struct {
		id    int
		count uint64
	}
	rows := make([]row, len(counts))
	for i, c := range counts {
		rows[i] = row{id: i, count: c}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].count > rows[j].count })
	fmt.Println("busiest neighborhoods:")
	fmt.Printf("%-16s %12s %10s\n", "neighborhood", "pickups", "share")
	for _, r := range rows[:10] {
		fmt.Printf("neighborhood-%03d %12d %9.2f%%\n",
			r.id, r.count, 100*float64(r.count)/float64(stats.Pairs()))
	}

	// Cross-check the top entry with an exact join on a sample: the
	// approximate and exact counts should agree to within the boundary
	// sliver fraction.
	sample := pickups[:200_000]
	approx, _, err := idx.JoinContext(ctx, sample, act.Approximate, 0)
	if err != nil {
		log.Fatal(err)
	}
	exact, _, err := idx.JoinContext(ctx, sample, act.Exact, 0)
	if err != nil {
		log.Fatal(err)
	}
	top := rows[0].id
	diff := float64(approx[top]-exact[top]) / float64(exact[top])
	fmt.Printf("\nsample check on %s: approximate=%d exact=%d (+%.3f%% boundary slivers)\n",
		fmt.Sprintf("neighborhood-%03d", top), approx[top], exact[top], 100*diff)
}
