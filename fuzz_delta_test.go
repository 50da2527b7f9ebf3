package act

import (
	"context"
	"slices"
	"testing"
)

// fuzzPool is the polygon pool FuzzDeltaMerge draws from: a handful of
// small overlapping triangles/quads around one neighbourhood, so delta
// coverings collide with base coverings and with each other.
func fuzzPool() []*Polygon {
	return []*Polygon{
		{Outer: []LatLng{{Lat: 40.700, Lng: -74.000}, {Lat: 40.700, Lng: -73.970}, {Lat: 40.730, Lng: -73.970}}},
		{Outer: []LatLng{{Lat: 40.705, Lng: -73.995}, {Lat: 40.705, Lng: -73.960}, {Lat: 40.740, Lng: -73.960}, {Lat: 40.740, Lng: -73.995}}},
		{Outer: []LatLng{{Lat: 40.710, Lng: -73.990}, {Lat: 40.710, Lng: -73.975}, {Lat: 40.725, Lng: -73.975}},
			Holes: [][]LatLng{{{Lat: 40.713, Lng: -73.985}, {Lat: 40.713, Lng: -73.982}, {Lat: 40.716, Lng: -73.982}}}},
		{Outer: []LatLng{{Lat: 40.690, Lng: -73.985}, {Lat: 40.690, Lng: -73.955}, {Lat: 40.715, Lng: -73.968}}},
		{Outer: []LatLng{{Lat: 40.720, Lng: -74.005}, {Lat: 40.720, Lng: -73.980}, {Lat: 40.745, Lng: -73.992}}},
		{Outer: []LatLng{{Lat: 40.695, Lng: -73.975}, {Lat: 40.695, Lng: -73.950}, {Lat: 40.708, Lng: -73.950}, {Lat: 40.708, Lng: -73.975}}},
	}
}

// fuzzProbes is a coarse lattice over the pool's bounding area, plus a few
// vertices — points that land on base cells, delta cells, both, and
// neither.
func fuzzProbes() []LatLng {
	var pts []LatLng
	for lat := 40.685; lat <= 40.75; lat += 0.004 {
		for lng := -74.01; lng <= -73.945; lng += 0.004 {
			pts = append(pts, LatLng{Lat: lat, Lng: lng})
		}
	}
	pts = append(pts, LatLng{Lat: 40.700, Lng: -74.000}, LatLng{Lat: 40.725, Lng: -73.975})
	return pts
}

// FuzzDeltaMerge interprets the input bytes as a mutation schedule over a
// tiny index — inserts from the pool, removes of arbitrary ids, explicit
// compactions — and checks the mutation layer's core invariant at the end
// of every schedule: merged base+delta lookups (scalar and batch, widths 1
// and 8) and exact refinements equal a from-scratch rebuild over the
// surviving polygon set. Invalid operations (removing an unknown id,
// inserting with an exhausted pool) must fail cleanly, never corrupt state.
// After every operation Status must add up: base count plus delta polygons
// minus tombstones is the live count.
func FuzzDeltaMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01})                         // two inserts
	f.Add([]byte{0x00, 0x40, 0x00})                   // insert, remove 0, insert
	f.Add([]byte{0x00, 0x00, 0x80, 0x01, 0x42, 0x80}) // mixed with compactions
	f.Add([]byte{0x41, 0x41, 0x7F})                   // double remove, bogus remove
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x80, 0x40, 0x43, 0x80, 0x00})
	f.Add([]byte{0x00, 0x42}) // insert, then remove it before any compaction

	pool := fuzzPool()
	probes := fuzzProbes()
	ctx := context.Background()

	f.Fuzz(func(t *testing.T, schedule []byte) {
		if len(schedule) > 24 {
			schedule = schedule[:24] // bound per-input work
		}
		base := pool[:2]
		idx, err := New(base, WithPrecision(2000), WithFanout(16), WithDeltaThreshold(-1))
		if err != nil {
			t.Fatal(err)
		}
		live := map[uint32]*Polygon{0: pool[0], 1: pool[1]}
		nextPool := 2
		for _, op := range schedule {
			switch {
			case op < 0x40: // insert the next pool polygon (wrapping)
				p := pool[(nextPool+int(op))%len(pool)]
				id, err := idx.Insert(ctx, p)
				if err != nil {
					t.Fatalf("insert: %v", err)
				}
				if _, dup := live[id]; dup {
					t.Fatalf("id %d reused", id)
				}
				live[id] = p
				nextPool++
			case op < 0x80: // remove id (op & 0x3f); may be bogus
				id := uint32(op & 0x3f)
				err := idx.Remove(ctx, id)
				if _, ok := live[id]; ok != (err == nil) {
					t.Fatalf("remove %d: live=%v err=%v", id, ok, err)
				}
				delete(live, id)
			default: // compact
				if err := idx.Compact(ctx); err != nil {
					t.Fatalf("compact: %v", err)
				}
			}
			if st := idx.Status(); st.Build.NumPolygons+st.DeltaPolygons-st.Tombstones != st.Live {
				t.Fatalf("after op %#x: %d base + %d delta - %d tombstones != %d live",
					op, st.Build.NumPolygons, st.DeltaPolygons, st.Tombstones, st.Live)
			}
		}
		if idx.Status().Live != len(live) {
			t.Fatalf("NumPolygons %d, live %d", idx.Status().Live, len(live))
		}

		// Reference: rebuild from the surviving set (dense ids), mapping
		// back through the sorted id list. An empty surviving set means
		// every probe must miss.
		ids := make([]uint32, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		var ref *Index
		if len(ids) > 0 {
			polys := make([]*Polygon, len(ids))
			for i, id := range ids {
				polys[i] = live[id]
			}
			if ref, err = New(polys, WithPrecision(2000), WithFanout(16)); err != nil {
				t.Fatal(err)
			}
		}
		translate := func(dense []uint32) []uint32 {
			out := make([]uint32, len(dense))
			for i, d := range dense {
				out[i] = ids[d]
			}
			slices.Sort(out)
			return out
		}
		srt := func(s []uint32) []uint32 {
			c := slices.Clone(s)
			slices.Sort(c)
			return c
		}

		var res, refRes Result
		for i, ll := range probes {
			hit := mustLookup(t, idx, ll, Approximate, &res)
			if ref == nil {
				if hit {
					t.Fatalf("probe %d matched %v/%v on an emptied index", i, res.True, res.Candidates)
				}
				continue
			}
			mustLookup(t, ref, ll, Approximate, &refRes)
			if !slices.Equal(srt(res.True), translate(refRes.True)) ||
				!slices.Equal(srt(res.Candidates), translate(refRes.Candidates)) {
				t.Fatalf("probe %d: merged %v/%v, rebuild %v/%v",
					i, res.True, res.Candidates, translate(refRes.True), translate(refRes.Candidates))
			}
			mustLookup(t, idx, ll, Exact, &res)
			mustLookup(t, ref, ll, Exact, &refRes)
			if !slices.Equal(srt(res.True), translate(refRes.True)) {
				t.Fatalf("probe %d: merged exact %v, rebuild %v", i, srt(res.True), translate(refRes.True))
			}
		}
		if ref == nil {
			return
		}
		// Batch path.
		got, err := idx.LookupBatch(ctx, probes)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.LookupBatch(ctx, probes)
		if err != nil {
			t.Fatal(err)
		}
		for i := range probes {
			if !slices.Equal(srt(got[i].True), translate(want[i].True)) ||
				!slices.Equal(srt(got[i].Candidates), translate(want[i].Candidates)) {
				t.Fatalf("probe %d: merged batch %v/%v, rebuild %v/%v",
					i, got[i].True, got[i].Candidates, want[i].True, want[i].Candidates)
			}
		}
	})
}
