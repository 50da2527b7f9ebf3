// Precision: empirically demonstrate the paper's headline guarantee — every
// false positive of the approximate join lies within the configured bound ε
// of its polygon. The example joins boundary-hugging points at several
// precisions, measures the true distance of every false positive, and
// prints the distance distribution against the bound.
//
//	go run ./examples/precision
package main

import (
	"fmt"
	"log"
	"math"
	"slices"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geo"
)

func main() {
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "precision-demo", NumRegions: 40, Lattice: 128, Seed: 5,
		BoundaryJitter: 0.7, WaterFraction: 0.1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Adversarial points: clustered tightly around polygon boundaries,
	// where approximate joins actually err.
	points, err := data.GeneratePoints(data.PointConfig{
		N: 150_000, Seed: 6, Distribution: data.Adversarial,
		Polygons: set, JitterMeters: 120,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("ε [m]   queries   matches   false-pos   max FP dist   within ε")
	for _, eps := range []float64{60, 15, 4} {
		idx, err := act.New(set.Polygons, act.WithPrecision(eps))
		if err != nil {
			log.Fatal(err)
		}
		var res, exact act.Result
		var matches, falsePos int
		maxDist := 0.0
		allWithin := true
		for _, ll := range points {
			// Only Exact mode can fail, on an index without geometry.
			if hit, _ := idx.Lookup(ll, act.Approximate, &res); !hit {
				continue
			}
			matches += res.Total()
			if len(res.Candidates) == 0 {
				continue
			}
			// The exact lookup refines the candidates against the geometry.
			if _, err := idx.Lookup(ll, act.Exact, &exact); err != nil {
				log.Fatal(err)
			}
			for _, id := range res.Candidates {
				if slices.Contains(exact.True, id) {
					continue // candidate that is actually inside
				}
				falsePos++
				d := distMeters(ll, set.Polygons[id])
				if d > maxDist {
					maxDist = d
				}
				if d > eps {
					allWithin = false
				}
			}
		}
		fmt.Printf("%5.0f  %8d  %8d  %10d  %9.2f m   %v\n",
			eps, len(points), matches, falsePos, maxDist, allWithin)
	}
	fmt.Println("\nEvery false positive lies within its ε — the precision guarantee.")
	fmt.Println("GPS fixes are only ~5 m accurate, so ε=4 m is below sensor noise.")
}

// distMeters measures the distance from a point to the polygon boundary in
// a local equirectangular frame (exact to well under 1% at these scales).
func distMeters(ll geo.LatLng, p *geo.Polygon) float64 {
	cosLat := math.Cos(ll.Lat * math.Pi / 180)
	best := math.Inf(1)
	measure := func(ring []geo.LatLng) {
		n := len(ring)
		for i := 0; i < n; i++ {
			a, b := ring[i], ring[(i+1)%n]
			ax, ay := a.Lng*cosLat, a.Lat
			bx, by := b.Lng*cosLat, b.Lat
			px, py := ll.Lng*cosLat, ll.Lat
			dx, dy := bx-ax, by-ay
			t := 0.0
			if den := dx*dx + dy*dy; den > 0 {
				t = math.Max(0, math.Min(1, ((px-ax)*dx+(py-ay)*dy)/den))
			}
			d := math.Hypot(ax+t*dx-px, ay+t*dy-py) * geo.MetersPerDegree
			if d < best {
				best = d
			}
		}
	}
	measure(p.Outer)
	for _, h := range p.Holes {
		measure(h)
	}
	return best
}
