package act_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/actindex/act"
)

// ExampleNew builds an index with functional options and answers a point
// query — the v2 shape of the package's quick start.
func ExampleNew() {
	midtown := &act.Polygon{Outer: []act.LatLng{
		{Lat: 40.745, Lng: -74.000},
		{Lat: 40.745, Lng: -73.970},
		{Lat: 40.770, Lng: -73.970},
		{Lat: 40.770, Lng: -74.000},
	}}
	idx, err := act.New([]*act.Polygon{midtown},
		act.WithPrecision(4),         // ε: false positives are within 4 m
		act.WithGrid(act.PlanarGrid)) // the default, spelled out
	if err != nil {
		log.Fatal(err)
	}
	var res act.Result
	// Only Exact mode can fail, on an index without geometry.
	if hit, _ := idx.Lookup(act.LatLng{Lat: 40.7580, Lng: -73.9855}, act.Approximate, &res); hit {
		fmt.Println("true hits:", res.True)
	}
	// Output: true hits: [0]
}

// ExampleSwappable replaces a served polygon set under (simulated) live
// traffic: readers Load per request, an operator Swaps in the replacement.
func ExampleSwappable() {
	build := func(outer []act.LatLng) *act.Index {
		idx, err := act.New([]*act.Polygon{{Outer: outer}}, act.WithPrecision(10))
		if err != nil {
			log.Fatal(err)
		}
		return idx
	}
	manhattan := build([]act.LatLng{
		{Lat: 40.70, Lng: -74.02}, {Lat: 40.70, Lng: -73.96},
		{Lat: 40.76, Lng: -73.96}, {Lat: 40.76, Lng: -74.02},
	})
	newark := build([]act.LatLng{
		{Lat: 40.70, Lng: -74.20}, {Lat: 40.70, Lng: -74.14},
		{Lat: 40.76, Lng: -74.14}, {Lat: 40.76, Lng: -74.20},
	})

	indexes := act.NewSwappable(manhattan)
	ll := act.LatLng{Lat: 40.73, Lng: -73.99} // in the Manhattan zone
	var res act.Result
	matched := func() bool { hit, _ := indexes.Load().Lookup(ll, act.Approximate, &res); return hit }
	fmt.Printf("gen %d: matched=%v\n", indexes.Generation(), matched())

	indexes.Swap(newark) // zero-downtime polygon-set update
	fmt.Printf("gen %d: matched=%v\n", indexes.Generation(), matched())
	// Output:
	// gen 1: matched=true
	// gen 2: matched=false
}

// ExampleIndex_Insert mutates a live index: a zone is inserted (served from
// the delta layer immediately), removed again, and the delta folded into a
// fresh base trie by Compact — all without ever blocking a lookup.
func ExampleIndex_Insert() {
	manhattan := &act.Polygon{Outer: []act.LatLng{
		{Lat: 40.70, Lng: -74.02}, {Lat: 40.70, Lng: -73.96},
		{Lat: 40.76, Lng: -73.96}, {Lat: 40.76, Lng: -74.02},
	}}
	idx, err := act.New([]*act.Polygon{manhattan}, act.WithPrecision(10))
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	newark := &act.Polygon{Outer: []act.LatLng{
		{Lat: 40.70, Lng: -74.20}, {Lat: 40.70, Lng: -74.14},
		{Lat: 40.76, Lng: -74.14}, {Lat: 40.76, Lng: -74.20},
	}}
	id, err := idx.Insert(ctx, newark) // live: no rebuild, readers unblocked
	if err != nil {
		log.Fatal(err)
	}
	inNewark := act.LatLng{Lat: 40.73, Lng: -74.17}
	var res act.Result
	matched := func() bool { hit, _ := idx.Lookup(inNewark, act.Approximate, &res); return hit }
	fmt.Printf("id %d: matched=%v delta=%v\n", id, matched(), idx.IsDelta(id))

	if err := idx.Compact(ctx); err != nil { // fold the delta into the base
		log.Fatal(err)
	}
	fmt.Printf("compacted: matched=%v delta=%v\n", matched(), idx.IsDelta(id))

	if err := idx.Remove(ctx, id); err != nil { // tombstone the zone again
		log.Fatal(err)
	}
	fmt.Printf("removed: matched=%v live=%d\n", matched(), idx.Status().Live)
	// Output:
	// id 1: matched=true delta=true
	// compacted: matched=true delta=false
	// removed: matched=false live=1
}

// ExampleRecover survives a crash: mutations are write-ahead logged as
// they are acknowledged, the process "crashes" (the index is simply
// dropped without Close), and Recover rebuilds the exact polygon set from
// the checkpoint snapshot plus the log tail.
func ExampleRecover() {
	dir, err := os.MkdirTemp("", "act-recover")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "zones.act")
	walPath := filepath.Join(dir, "zones.wal")

	manhattan := &act.Polygon{Outer: []act.LatLng{
		{Lat: 40.70, Lng: -74.02}, {Lat: 40.70, Lng: -73.96},
		{Lat: 40.76, Lng: -73.96}, {Lat: 40.76, Lng: -74.02},
	}}
	idx, err := act.New([]*act.Polygon{manhattan},
		act.WithPrecision(10),
		act.WithWAL(act.WALConfig{Path: walPath, SnapshotPath: snapPath}))
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	newark := &act.Polygon{Outer: []act.LatLng{
		{Lat: 40.70, Lng: -74.20}, {Lat: 40.70, Lng: -74.14},
		{Lat: 40.76, Lng: -74.14}, {Lat: 40.76, Lng: -74.20},
	}}
	if _, err := idx.Insert(ctx, newark); err != nil { // fsynced before acknowledged
		log.Fatal(err)
	}
	if err := idx.Compact(ctx); err != nil { // checkpoint: snapshot + log rotation
		log.Fatal(err)
	}
	if err := idx.Remove(ctx, 0); err != nil { // lands in the log tail
		log.Fatal(err)
	}
	// Crash: the process dies here without Close. The snapshot holds both
	// zones; the remove of Manhattan exists only as a log record.

	rec, err := act.Recover(snapPath, walPath)
	if err != nil {
		log.Fatal(err)
	}
	defer rec.Close()
	inManhattan := act.LatLng{Lat: 40.73, Lng: -73.99}
	inNewark := act.LatLng{Lat: 40.73, Lng: -74.17}
	var res act.Result
	matched := func(ll act.LatLng) bool { hit, _ := rec.Lookup(ll, act.Approximate, &res); return hit }
	st := rec.Status()
	fmt.Printf("replayed %d record(s), live=%d\n", st.WAL.RecoveredRecords, st.Live)
	fmt.Printf("manhattan=%v newark=%v\n", matched(inManhattan), matched(inNewark))
	// Output:
	// replayed 1 record(s), live=1
	// manhattan=false newark=true
}
