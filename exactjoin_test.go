package act_test

// Property tests for the exact-join refinement subsystem: on randomly
// generated polygon sets and query points, the trie-driven exact join must
// agree pair-for-pair with a brute-force point-in-polygon scan over the
// same geometry, and the approximate lookup must stay a superset of the
// exact result at every precision (the paper's no-false-negative guarantee)
// while its true hits stay a subset (true hits are certain).

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/grid"
)

// propPrecisions are deliberately coarse so thousands of index builds stay
// fast; the properties under test hold at every precision.
var propPrecisions = []float64{250, 60}

// randStarPolygon builds a random simple (star-shaped) geographic polygon:
// vertices at increasing angles around a center never self-intersect. With
// withHole, a smaller star strictly inside the minimum outer radius is
// punched out.
func randStarPolygon(rng *rand.Rand, withHole bool) *act.Polygon {
	lat := rng.Float64()*110 - 55
	lng := rng.Float64()*340 - 170
	rMax := 0.01 + 0.04*rng.Float64() // degrees
	ring := func(r0, r1 float64, verts int) []act.LatLng {
		out := make([]act.LatLng, verts)
		for i := range out {
			ang := (float64(i) + rng.Float64()*0.8) / float64(verts) * 2 * math.Pi
			r := r0 + (r1-r0)*rng.Float64()
			out[i] = act.LatLng{Lat: lat + r*math.Sin(ang), Lng: lng + r*math.Cos(ang)}
		}
		return out
	}
	p := &act.Polygon{Outer: ring(0.4*rMax, rMax, 5+rng.Intn(10))}
	if withHole {
		p.Holes = [][]act.LatLng{ring(0.08*rMax, 0.3*rMax, 4+rng.Intn(5))}
	}
	return p
}

// randPolygonSet builds 3–10 polygons clustered enough to overlap.
func randPolygonSet(rng *rand.Rand) []*act.Polygon {
	n := 3 + rng.Intn(8)
	polys := make([]*act.Polygon, 0, n)
	anchor := randStarPolygon(rng, false)
	polys = append(polys, anchor)
	c := anchor.Outer[0]
	for len(polys) < n {
		p := randStarPolygon(rng, rng.Intn(4) == 0)
		// Pull most polygons near the anchor so coverings overlap and
		// lookup-table reference sets with 3+ entries get exercised.
		if rng.Intn(4) != 0 {
			dLat := c.Lat - p.Outer[0].Lat + (rng.Float64()-0.5)*0.06
			dLng := c.Lng - p.Outer[0].Lng + (rng.Float64()-0.5)*0.06
			shift := func(ring []act.LatLng) bool {
				for i := range ring {
					ring[i].Lat += dLat
					ring[i].Lng += dLng
					if !ring[i].IsValid() {
						return false
					}
				}
				return true
			}
			ok := shift(p.Outer)
			for _, h := range p.Holes {
				ok = ok && shift(h)
			}
			if !ok {
				continue
			}
		}
		polys = append(polys, p)
	}
	return polys
}

// randPoints mixes uniform points over the set's neighbourhood with points
// hugging polygon edges, the candidate-heavy workload refinement exists for.
func randPoints(rng *rand.Rand, polys []*act.Polygon, n int) []act.LatLng {
	c := polys[0].Outer[0]
	pts := make([]act.LatLng, 0, n)
	for len(pts) < n {
		var ll act.LatLng
		switch rng.Intn(3) {
		case 0: // uniform near the cluster (includes misses)
			ll = act.LatLng{Lat: c.Lat + (rng.Float64()-0.5)*0.3, Lng: c.Lng + (rng.Float64()-0.5)*0.3}
		default: // on or near a random polygon edge
			p := polys[rng.Intn(len(polys))]
			i := rng.Intn(len(p.Outer))
			a, b := p.Outer[i], p.Outer[(i+1)%len(p.Outer)]
			t := rng.Float64()
			jit := (rng.Float64() - 0.5) * 1e-4
			ll = act.LatLng{
				Lat: a.Lat + t*(b.Lat-a.Lat) + jit,
				Lng: a.Lng + t*(b.Lng-a.Lng) + jit,
			}
		}
		if ll.IsValid() {
			pts = append(pts, ll)
		}
	}
	return pts
}

// oracle is the trie-free ground truth: an exact point-in-polygon test
// against every projected polygon.
type oracle struct {
	g     grid.Grid
	polys []*geom.Polygon
}

func buildOracle(t *testing.T, polys []*act.Polygon) *oracle {
	t.Helper()
	g := grid.NewPlanar()
	projected := make([]*geom.Polygon, len(polys))
	for i, p := range polys {
		_, pp, err := grid.ProjectPolygon(g, p)
		if err != nil {
			t.Fatalf("project polygon %d: %v", i, err)
		}
		projected[i] = pp
	}
	return &oracle{g: g, polys: projected}
}

// exactIDs appends to buf, in id order, the ids of every polygon exactly
// containing ll.
func (o *oracle) exactIDs(ll act.LatLng, buf []uint32) []uint32 {
	_, pt := o.g.Project(ll)
	for id, p := range o.polys {
		if p.ContainsPointExact(pt) {
			buf = append(buf, uint32(id))
		}
	}
	return buf
}

// TestJoinExactParityProperty is the subsystem's acceptance property, run
// on over 1000 randomized polygon/point configurations (a configuration is
// one polygon set joined with one point batch at one precision):
//
//  1. JoinExact pair sets equal the brute-force scan, point by point;
//  2. approximate Lookup results are a superset of the exact result;
//  3. approximate true hits are a subset of the exact result.
func TestJoinExactParityProperty(t *testing.T) {
	t.Parallel()
	numSets, numBatches := 28, 20
	if testing.Short() {
		numSets, numBatches = 6, 10
	}
	configs := 0
	for s := 0; s < numSets; s++ {
		rng := rand.New(rand.NewSource(int64(1000 + s)))
		polys := randPolygonSet(rng)
		o := buildOracle(t, polys)
		for _, eps := range propPrecisions {
			idx, err := act.New(polys, act.WithPrecision(eps))
			if err != nil {
				t.Fatalf("set %d eps %v: %v", s, eps, err)
			}
			for b := 0; b < numBatches; b++ {
				pts := randPoints(rng, polys, 40)
				checkBatchParity(t, idx, o, pts, s, eps)
				configs++
			}
		}
	}
	if !testing.Short() && configs < 1000 {
		t.Fatalf("only %d configurations exercised, want >= 1000", configs)
	}
	t.Logf("verified %d polygon/point configurations", configs)
}

func checkBatchParity(t *testing.T, idx *act.Index, o *oracle, pts []act.LatLng, set int, eps float64) {
	t.Helper()
	// Exact join through the engine (2 workers exercises the parallel
	// driver; pairs come back sorted and deterministic).
	pairs, _, err := idx.PairsContext(context.Background(), pts, act.Exact, 2)
	if err != nil {
		t.Fatalf("set %d eps %v: PairsContext: %v", set, eps, err)
	}
	perPoint := make([][]uint32, len(pts))
	for _, pr := range pairs {
		perPoint[pr.Point] = append(perPoint[pr.Point], pr.Polygon)
	}
	var res act.Result
	var buf []uint32
	for i, ll := range pts {
		want := o.exactIDs(ll, buf[:0])
		got := perPoint[i]
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("set %d eps %v point %d (%v): JoinExact=%v brute-force=%v",
				set, eps, i, ll, got, want)
		}
		// The exact Lookup must agree with the join engine's refinement.
		res.Reset()
		mustLookup(t, idx, ll, act.Exact, &res)
		le := append([]uint32(nil), res.True...)
		slices.Sort(le)
		if !slices.Equal(le, want) {
			t.Fatalf("set %d eps %v point %d: exact Lookup=%v brute-force=%v",
				set, eps, i, le, want)
		}
		// Approximate superset / true-hit subset.
		res.Reset()
		mustLookup(t, idx, ll, act.Approximate, &res)
		approx := append(append([]uint32(nil), res.True...), res.Candidates...)
		slices.Sort(approx)
		for _, id := range want {
			if !slices.Contains(approx, id) {
				t.Fatalf("set %d eps %v point %d: exact id %d missing from approximate result %v (false negative)",
					set, eps, i, id, approx)
			}
		}
		for _, id := range res.True {
			if !slices.Contains(want, id) {
				t.Fatalf("set %d eps %v point %d: true hit %d not actually inside (exact=%v)",
					set, eps, i, id, want)
			}
		}
		buf = want
	}
}

// TestJoinExactCountsMatchOracle checks the aggregation path (JoinExact's
// per-polygon counts) against oracle counts on a larger single scene.
func TestJoinExactCountsMatchOracle(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(99))
	polys := randPolygonSet(rng)
	o := buildOracle(t, polys)
	idx, err := act.New(polys, act.WithPrecision(120))
	if err != nil {
		t.Fatal(err)
	}
	pts := randPoints(rng, polys, 5000)
	counts, stats, err := idx.JoinContext(context.Background(), pts, act.Exact, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, len(polys))
	var buf []uint32
	for _, ll := range pts {
		buf = o.exactIDs(ll, buf[:0])
		for _, id := range buf {
			want[id]++
		}
	}
	for id := range want {
		if counts[id] != want[id] {
			t.Fatalf("polygon %d: JoinExact count %d, oracle %d", id, counts[id], want[id])
		}
	}
	if stats.Pairs() == 0 {
		t.Fatal("exact join produced no pairs on an overlapping scene")
	}
}

// TestExactAtPolesAndAntimeridian drives the exact lookup across the
// coordinate system's seams: polygons hugging the poles and the
// antimeridian, query points exactly on lat ±90, lng ±180, on polygon
// vertices, and on edge midpoints. The refinement must neither panic nor
// violate the superset/parity contracts anywhere on the seam.
func TestExactAtPolesAndAntimeridian(t *testing.T) {
	t.Parallel()
	polys := []*act.Polygon{
		// Touches the north pole edge of the planar grid.
		{Outer: []act.LatLng{{Lat: 89.5, Lng: -30}, {Lat: 89.5, Lng: 30}, {Lat: 90, Lng: 10}}},
		// Touches the antimeridian (lng = +180 is the grid's right edge).
		{Outer: []act.LatLng{{Lat: 10, Lng: 179.2}, {Lat: 12, Lng: 180}, {Lat: 14, Lng: 179.4}}},
		// Touches the south pole and the west edge.
		{Outer: []act.LatLng{{Lat: -90, Lng: -180}, {Lat: -89.3, Lng: -179}, {Lat: -89.6, Lng: -177}}},
	}
	for _, eps := range []float64{2000, 250} {
		idx, err := act.New(polys, act.WithPrecision(eps))
		if err != nil {
			t.Fatalf("eps %v: %v", eps, err)
		}
		o := buildOracle(t, polys)
		var pts []act.LatLng
		// The seams themselves, the vertices, and edge midpoints.
		for _, lng := range []float64{-180, -179.5, -30, 10, 179.2, 179.6, 180} {
			for _, lat := range []float64{90, 89.9, 89.5, 12, -89.3, -89.9, -90} {
				pts = append(pts, act.LatLng{Lat: lat, Lng: lng})
			}
		}
		for _, p := range polys {
			n := len(p.Outer)
			for i, v := range p.Outer {
				w := p.Outer[(i+1)%n]
				pts = append(pts, v, act.LatLng{Lat: (v.Lat + w.Lat) / 2, Lng: (v.Lng + w.Lng) / 2})
			}
		}
		var res act.Result
		var buf []uint32
		for _, ll := range pts {
			if !ll.IsValid() {
				t.Fatalf("test point %v invalid", ll)
			}
			want := o.exactIDs(ll, buf[:0])
			res.Reset()
			mustLookup(t, idx, ll, act.Exact, &res)
			got := append([]uint32(nil), res.True...)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("eps %v point %v: exact Lookup=%v oracle=%v", eps, ll, got, want)
			}
			res.Reset()
			mustLookup(t, idx, ll, act.Approximate, &res)
			approx := append(append([]uint32(nil), res.True...), res.Candidates...)
			for _, id := range want {
				if !slices.Contains(approx, id) {
					t.Fatalf("eps %v point %v: exact id %d missing from approximate result", eps, ll, id)
				}
			}
			buf = want
		}
	}
}

// mustLookup runs Lookup in the given mode, failing the test on an error.
func mustLookup(t testing.TB, idx *act.Index, ll act.LatLng, mode act.JoinMode, res *act.Result) bool {
	t.Helper()
	hit, err := idx.Lookup(ll, mode, res)
	if err != nil {
		t.Fatalf("Lookup(%v, %v): %v", ll, mode, err)
	}
	return hit
}

// TestExactWithoutGeometry pins the one read contract on an index without a
// geometry store, however it came to lack one — built with
// WithGeometryStore(false), loaded by ReadIndex or OpenIndex from a file
// without a geometry section, or mutated by an Insert: every exact read
// (Lookup, JoinContext, PairsContext, JoinStreamContext) reports
// ErrNoGeometry, and approximate lookups answer what an index with geometry
// answers, with a nil error.
func TestExactWithoutGeometry(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	polys := randPolygonSet(rng)
	idx, err := act.New(polys, act.WithPrecision(120), act.WithGeometryStore(false))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Status().HasGeometry {
		t.Fatal("WithGeometryStore(false) index reports HasGeometry")
	}
	// The twin carries geometry; approximate answers do not depend on it.
	twin, err := act.New(polys, act.WithPrecision(120))
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if _, err := idx.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	read, err := act.ReadIndex(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "nogeo.act")
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	opened, err := act.OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	pts := randPoints(rng, polys, 100)
	check := func(name string, idx *act.Index) {
		t.Helper()
		ctx := context.Background()
		var res act.Result
		if hit, err := idx.Lookup(pts[0], act.Exact, &res); err != act.ErrNoGeometry || hit || res.Total() != 0 {
			t.Fatalf("%s: Lookup(Exact) = %v %+v, %v, want false, empty, ErrNoGeometry", name, hit, res, err)
		}
		if _, err := idx.JoinStreamContext(ctx, pts, act.Exact, 1, func(act.Pair) { t.Errorf("%s: pair streamed", name) }); err != act.ErrNoGeometry {
			t.Fatalf("%s: JoinStreamContext(Exact) error = %v, want ErrNoGeometry", name, err)
		}
		if _, _, err := idx.PairsContext(ctx, pts, act.Exact, 1); err != act.ErrNoGeometry {
			t.Fatalf("%s: PairsContext(Exact) error = %v, want ErrNoGeometry", name, err)
		}
		if _, _, err := idx.JoinContext(ctx, pts, act.Exact, 1); err != act.ErrNoGeometry {
			t.Fatalf("%s: JoinContext(Exact) error = %v, want ErrNoGeometry", name, err)
		}
		if _, stats, err := idx.JoinContext(ctx, pts, act.Approximate, 1); err != nil || stats.Points != len(pts) {
			t.Fatalf("%s: approximate join: stats=%+v err=%v", name, stats, err)
		}
		hits := 0
		var want act.Result
		for _, ll := range pts {
			hit := mustLookup(t, idx, ll, act.Approximate, &res)
			if wantHit := mustLookup(t, twin, ll, act.Approximate, &want); hit != wantHit || !res.Equal(&want) {
				t.Fatalf("%s: approximate Lookup(%v) = %v %+v, with geometry %v %+v", name, ll, hit, res, wantHit, want)
			}
			if hit {
				hits++
			}
		}
		if hits == 0 {
			t.Fatalf("%s: approximate lookups stopped matching without geometry", name)
		}
	}
	check("New", idx)
	check("ReadIndex", read)
	check("OpenIndex", opened)
	extra := randStarPolygon(rng, false)
	for _, ix := range []*act.Index{idx, twin} {
		if _, err := ix.Insert(context.Background(), extra); err != nil {
			t.Fatal(err)
		}
	}
	check("Insert", idx)
}
