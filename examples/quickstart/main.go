// Quickstart: build an index over a handful of polygons and query points.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/actindex/act"
)

func main() {
	// Two simple zones in Manhattan: Midtown-ish and Downtown-ish, the
	// latter with a "park" hole that is excluded.
	midtown := &act.Polygon{Outer: []act.LatLng{
		{Lat: 40.745, Lng: -74.000},
		{Lat: 40.745, Lng: -73.970},
		{Lat: 40.770, Lng: -73.970},
		{Lat: 40.770, Lng: -74.000},
	}}
	downtown := &act.Polygon{
		Outer: []act.LatLng{
			{Lat: 40.700, Lng: -74.020},
			{Lat: 40.700, Lng: -73.990},
			{Lat: 40.730, Lng: -73.990},
			{Lat: 40.730, Lng: -74.020},
		},
		Holes: [][]act.LatLng{{
			{Lat: 40.720, Lng: -74.018},
			{Lat: 40.720, Lng: -74.012},
			{Lat: 40.726, Lng: -74.012},
			{Lat: 40.726, Lng: -74.018},
		}},
	}

	// Build with a 4 m precision bound: any reported match is either
	// certainly inside or within 4 m of the polygon.
	idx, err := act.New([]*act.Polygon{midtown, downtown}, act.WithPrecision(4))
	if err != nil {
		log.Fatal(err)
	}
	st := idx.Status().Build
	fmt.Printf("index: %d polygons, %d cells, %.2f MB, achieved precision %.2f m\n",
		st.NumPolygons, st.IndexedCells, float64(st.TotalBytes())/1e6,
		st.AchievedPrecisionMeters)

	names := []string{"midtown", "downtown"}
	queries := []struct {
		name string
		ll   act.LatLng
	}{
		{"Times Square", act.LatLng{Lat: 40.7580, Lng: -73.9855}},
		{"City Hall", act.LatLng{Lat: 40.7127, Lng: -74.0059}},
		{"inside the park hole", act.LatLng{Lat: 40.723, Lng: -74.015}},
		{"Brooklyn (outside)", act.LatLng{Lat: 40.650, Lng: -73.950}},
	}
	var res act.Result
	for _, q := range queries {
		// Only Exact mode can fail, on an index without geometry.
		if hit, _ := idx.Lookup(q.ll, act.Approximate, &res); !hit {
			fmt.Printf("%-22s -> no zone\n", q.name)
			continue
		}
		fmt.Printf("%-22s ->", q.name)
		for _, id := range res.True {
			fmt.Printf(" %s (certain)", names[id])
		}
		for _, id := range res.Candidates {
			fmt.Printf(" %s (within %gm)", names[id], idx.PrecisionMeters())
		}
		fmt.Println()
	}
}
