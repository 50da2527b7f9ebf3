package act

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/grid"
)

// mustLookup runs Lookup in the given mode, failing the test on an error.
func mustLookup(t testing.TB, ix *Index, ll LatLng, mode JoinMode, res *Result) bool {
	t.Helper()
	hit, err := ix.Lookup(ll, mode, res)
	if err != nil {
		t.Fatalf("Lookup(%v, %v): %v", ll, mode, err)
	}
	return hit
}

// containsOracle is the exact ground truth for the lookup tests: the input
// polygons projected with the index's grid, each tested with an exact
// point-in-polygon scan. It shares nothing with the read path under test —
// no trie, overlay or geometry store.
type containsOracle struct {
	g     grid.Grid
	faces []int
	polys []*geom.Polygon
}

func newContainsOracle(t testing.TB, ix *Index, polys []*Polygon) *containsOracle {
	t.Helper()
	o := &containsOracle{g: ix.pl.grid}
	for i, p := range polys {
		face, pp, err := grid.ProjectPolygon(o.g, p)
		if err != nil {
			t.Fatalf("project polygon %d: %v", i, err)
		}
		o.faces = append(o.faces, face)
		o.polys = append(o.polys, pp)
	}
	return o
}

// contains reports whether polygon id exactly contains ll (boundary points
// inside); an unknown id contains nothing.
func (o *containsOracle) contains(ll LatLng, id uint32) bool {
	if int(id) >= len(o.polys) {
		return false
	}
	face, pt := o.g.Project(ll)
	return face == o.faces[id] && o.polys[id].ContainsPointExact(pt)
}

// distMeters approximates the distance in meters from a point to the
// nearest boundary of the polygon using a local equirectangular frame —
// accurate well below 1% at the sub-100 m distances the precision bound
// constrains.
func distMeters(ll geo.LatLng, p *geo.Polygon) float64 {
	cosLat := math.Cos(ll.Lat * math.Pi / 180)
	best := math.Inf(1)
	measure := func(ring []geo.LatLng) {
		n := len(ring)
		for i := 0; i < n; i++ {
			a, b := ring[i], ring[(i+1)%n]
			d := distPointSegMeters(ll, a, b, cosLat)
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

func distPointSegMeters(p, a, b geo.LatLng, cosLat float64) float64 {
	px := (p.Lng) * cosLat
	py := p.Lat
	ax, ay := a.Lng*cosLat, a.Lat
	bx, by := b.Lng*cosLat, b.Lat
	dx, dy := bx-ax, by-ay
	den := dx*dx + dy*dy
	t := 0.0
	if den > 0 {
		t = ((px-ax)*dx + (py-ay)*dy) / den
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
	}
	ex, ey := ax+t*dx-px, ay+t*dy-py
	return math.Hypot(ex, ey) * geo.MetersPerDegree
}

// TestPrecisionGuarantee is the end-to-end property of the paper's title:
// with precision ε, (a) every point inside a polygon is reported (no false
// negatives), (b) every reported pair not truly inside is within ε meters
// of the polygon, and (c) true-hit results are truly inside.
func TestPrecisionGuarantee(t *testing.T) {
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "precision", NumRegions: 40, Lattice: 128, Seed: 21,
		BoundaryJitter: 0.7, WaterFraction: 0.15, HoleFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, gk := range []GridKind{PlanarGrid, CubeFaceGrid} {
		for _, eps := range []float64{60, 15, 4} {
			idx, err := New(set.Polygons, WithPrecision(eps), WithGrid(gk))
			if err != nil {
				t.Fatalf("%v/%v: %v", gk, eps, err)
			}
			if got := idx.Status().Build.AchievedPrecisionMeters; got > eps {
				t.Errorf("%v/%v: achieved precision %.3f > ε", gk, eps, got)
			}
			// Adversarial points concentrate near boundaries, where the
			// guarantee is actually exercised.
			pts, err := data.GeneratePoints(data.PointConfig{
				N: 6000, Seed: 22, Distribution: data.Adversarial,
				Polygons: set, JitterMeters: eps * 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			var res Result
			falsePositives := 0
			o := newContainsOracle(t, idx, set.Polygons)
			for _, ll := range pts {
				// Ground truth in the index's grid projection, which
				// defines containment semantics.
				truthSet := map[uint32]bool{}
				for id := range set.Polygons {
					if o.contains(ll, uint32(id)) {
						truthSet[uint32(id)] = true
					}
				}
				mustLookup(t, idx, ll, Approximate, &res)
				got := map[uint32]bool{}
				for _, id := range res.True {
					got[id] = true
					// (c) true hits are truly inside.
					if !truthSet[id] {
						t.Fatalf("%v/%v: true hit %d not inside at %v", gk, eps, id, ll)
					}
				}
				for _, id := range res.Candidates {
					got[id] = true
				}
				// (a) no false negatives.
				for id := range truthSet {
					if !got[id] {
						t.Fatalf("%v/%v: missed polygon %d containing %v", gk, eps, id, ll)
					}
				}
				// (b) false positives within ε.
				for _, id := range res.Candidates {
					if truthSet[id] {
						continue
					}
					falsePositives++
					if d := distMeters(ll, set.Polygons[id]); d > eps*1.05 {
						t.Fatalf("%v/%v: false positive %d at %.2f m > ε=%v (point %v)",
							gk, eps, id, d, eps, ll)
					}
				}
			}
			if falsePositives == 0 {
				t.Errorf("%v/%v: adversarial points produced no false positives; test not exercising the bound", gk, eps)
			}
		}
	}
}

func TestLookupExactMatchesGroundTruth(t *testing.T) {
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "exact", NumRegions: 25, Lattice: 96, Seed: 31,
		BoundaryJitter: 0.5, HoleFraction: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(set.Polygons, WithPrecision(30))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	b := set.Bound
	var res Result
	o := newContainsOracle(t, idx, set.Polygons)
	for n := 0; n < 8000; n++ {
		ll := geo.LatLng{
			Lat: b.MinLat + rng.Float64()*(b.MaxLat-b.MinLat),
			Lng: b.MinLng + rng.Float64()*(b.MaxLng-b.MinLng),
		}
		mustLookup(t, idx, ll, Exact, &res)
		if len(res.Candidates) != 0 {
			t.Fatal("exact Lookup left candidates")
		}
		got := map[uint32]bool{}
		for _, id := range res.True {
			got[id] = true
		}
		for id := range set.Polygons {
			want := o.contains(ll, uint32(id))
			if got[uint32(id)] != want {
				t.Fatalf("point %v polygon %d: exact=%v truth=%v", ll, id, got[uint32(id)], want)
			}
		}
	}
}

func TestCubeFaceAndPlanarAgree(t *testing.T) {
	// The two grids implement the same join semantics up to boundary-sliver
	// differences; exact lookups must agree except within ~1e-7 degrees of
	// an edge. Compare exact joins and allow no disagreement on points
	// far from boundaries.
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "grids", NumRegions: 15, Lattice: 64, Seed: 41, BoundaryJitter: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(set.Polygons, WithPrecision(15), WithGrid(PlanarGrid))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(set.Polygons, WithPrecision(15), WithGrid(CubeFaceGrid))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	b := set.Bound
	var rp, rc Result
	disagree := 0
	for n := 0; n < 4000; n++ {
		ll := geo.LatLng{
			Lat: b.MinLat + rng.Float64()*(b.MaxLat-b.MinLat),
			Lng: b.MinLng + rng.Float64()*(b.MaxLng-b.MinLng),
		}
		mustLookup(t, p, ll, Exact, &rp)
		mustLookup(t, c, ll, Exact, &rc)
		if len(rp.True) != len(rc.True) {
			disagree++
			continue
		}
		mp := map[uint32]bool{}
		for _, id := range rp.True {
			mp[id] = true
		}
		for _, id := range rc.True {
			if !mp[id] {
				disagree++
				break
			}
		}
	}
	// Projection differences only matter within float rounding of an
	// edge; on 4000 random points expect none.
	if disagree > 4 {
		t.Errorf("grids disagree on %d/4000 points", disagree)
	}
}

func TestBuildStatsShape(t *testing.T) {
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "stats", NumRegions: 20, Lattice: 64, Seed: 51, BoundaryJitter: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var prevCells int
	for _, eps := range []float64{120, 30, 8} {
		idx, err := New(set.Polygons, WithPrecision(eps))
		if err != nil {
			t.Fatal(err)
		}
		st := idx.Status().Build
		if st.NumPolygons != len(set.Polygons) {
			t.Errorf("NumPolygons = %d", st.NumPolygons)
		}
		if st.IndexedCells <= prevCells {
			t.Errorf("ε=%v: indexed cells %d not more than coarser %d", eps, st.IndexedCells, prevCells)
		}
		prevCells = st.IndexedCells
		if st.TrieBytes <= 0 || st.TrieNodes <= 0 {
			t.Errorf("ε=%v: empty trie stats %+v", eps, st)
		}
		if st.TotalBytes() != st.TrieBytes+st.TableBytes {
			t.Error("TotalBytes mismatch")
		}
		if st.AchievedPrecisionMeters > eps || st.AchievedPrecisionMeters <= 0 {
			t.Errorf("ε=%v: achieved %.3f", eps, st.AchievedPrecisionMeters)
		}
	}
}

func TestNewValidation(t *testing.T) {
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "v", NumRegions: 5, Lattice: 32, Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, WithPrecision(10)); err == nil {
		t.Error("no polygons should error")
	}
	if _, err := New(set.Polygons); err == nil {
		t.Error("missing precision should error")
	}
	for _, eps := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := New(set.Polygons, WithPrecision(eps)); err == nil || !strings.Contains(err.Error(), "positive and finite") {
			t.Errorf("precision %v: got %v, want a positive-and-finite error", eps, err)
		}
	}
	if _, err := New(set.Polygons, WithPrecision(10), WithFanout(7)); err == nil {
		t.Error("bad fanout should error")
	}
	if _, err := New(set.Polygons, WithPrecision(10), WithGrid(GridKind(9))); err == nil {
		t.Error("bad grid should error")
	}
	bad := &Polygon{Outer: []geo.LatLng{{Lat: 0, Lng: 0}, {Lat: 1, Lng: 1}}}
	if _, err := New([]*Polygon{bad}, WithPrecision(10)); err == nil {
		t.Error("invalid polygon should error")
	}
}

func TestFindAndContains(t *testing.T) {
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "find", NumRegions: 8, Lattice: 48, Seed: 81,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(set.Polygons, WithPrecision(20))
	if err != nil {
		t.Fatal(err)
	}
	// The centroid-ish point of each polygon's bound that is inside it
	// must be found.
	found := 0
	var res Result
	o := newContainsOracle(t, idx, set.Polygons)
	for id, p := range set.Polygons {
		c := p.Bound().Center()
		if !o.contains(c, uint32(id)) {
			continue // center may fall outside an irregular polygon
		}
		found++
		mustLookup(t, idx, c, Approximate, &res)
		if !slices.Contains(res.True, uint32(id)) && !slices.Contains(res.Candidates, uint32(id)) {
			t.Errorf("Lookup(%v) = %v/%v missing polygon %d", c, res.True, res.Candidates, id)
		}
	}
	if found == 0 {
		t.Error("no polygon contained its bound center; degenerate dataset")
	}
	// An unknown id is never contained: no exact lookup reports an id
	// beyond the polygon set.
	unknown := func(id uint32) bool { return int(id) >= len(set.Polygons) }
	for _, p := range set.Polygons {
		if ll := p.Bound().Center(); mustLookup(t, idx, ll, Exact, &res) && slices.ContainsFunc(res.True, unknown) {
			t.Errorf("exact Lookup(%v) = %v reports an unknown polygon id", ll, res.True)
		}
	}
	if idx.Status().Live != len(set.Polygons) {
		t.Error("NumPolygons mismatch")
	}
	if idx.GridKind().String() != "planar" {
		t.Errorf("grid = %q", idx.GridKind().String())
	}
	if idx.PrecisionMeters() != 20 {
		t.Errorf("PrecisionMeters = %v", idx.PrecisionMeters())
	}
}

func TestCellLevelForPrecision(t *testing.T) {
	set, _ := data.GeneratePolygons(data.PolygonConfig{
		Name: "lvl", NumRegions: 4, Lattice: 32, Seed: 91,
	})
	idx, err := New(set.Polygons, WithPrecision(50))
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, m := range []float64{1000, 100, 10, 1} {
		lvl := idx.CellLevelForPrecision(m, 40.7)
		if lvl < prev {
			t.Errorf("level for %.0f m = %d, shallower than coarser bound", m, lvl)
		}
		prev = lvl
	}
	// The paper reports level 24 bounding the error below 1 m on S2; the
	// planar grid packs the whole world into one face (vs six), so its
	// cells at a given level are larger and 1 m needs level 26.
	if lvl := idx.CellLevelForPrecision(1, 40.7); lvl != 26 {
		t.Errorf("planar 1 m precision needs level %d; expected 26", lvl)
	}
	cf, err := New(set.Polygons, WithPrecision(50), WithGrid(CubeFaceGrid))
	if err != nil {
		t.Fatal(err)
	}
	if lvl := cf.CellLevelForPrecision(1, 40.7); lvl > 25 {
		t.Errorf("cube-face 1 m precision needs level %d; expected ≈24", lvl)
	}
}

func TestJoinModes(t *testing.T) {
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "joinmodes", NumRegions: 12, Lattice: 64, Seed: 95, BoundaryJitter: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(set.Polygons, WithPrecision(15))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := data.GeneratePoints(data.PointConfig{N: 30000, Seed: 96})
	if err != nil {
		t.Fatal(err)
	}
	ca, sa := joinCounts(t, idx, pts, Approximate, 1)
	ce, se := joinCounts(t, idx, pts, Exact, 2)
	if len(ca) != idx.Status().Live || len(ce) != idx.Status().Live {
		t.Fatal("count vector sized wrong")
	}
	for i := range ca {
		if ca[i] < ce[i] {
			t.Fatalf("polygon %d: approx %d < exact %d", i, ca[i], ce[i])
		}
	}
	if sa.Pairs() < se.Pairs() {
		t.Error("approximate pairs fewer than exact")
	}
	// Ground truth for a sample.
	var res Result
	for n := 0; n < 200; n++ {
		ll := pts[n*113%len(pts)]
		mustLookup(t, idx, ll, Exact, &res)
	}
}

// joinCounts and joinPairs run JoinContext and PairsContext to completion,
// failing the test on an error.
func joinCounts(t testing.TB, idx *Index, pts []LatLng, mode JoinMode, threads int) ([]uint64, JoinStats) {
	t.Helper()
	counts, st, err := idx.JoinContext(context.Background(), pts, mode, threads)
	if err != nil {
		t.Fatal(err)
	}
	return counts, st
}

func joinPairs(t testing.TB, idx *Index, pts []LatLng, mode JoinMode, threads int) ([]Pair, JoinStats) {
	t.Helper()
	pairs, st, err := idx.PairsContext(context.Background(), pts, mode, threads)
	if err != nil {
		t.Fatal(err)
	}
	return pairs, st
}

// TestJoinStreamAndPairs pins the streaming engine API to per-point Lookup
// ground truth: PairsContext must enumerate exactly the (point, polygon)
// matches Lookup reports, JoinStreamContext must deliver the same multiset
// serialized, and JoinContext must equal the aggregation of either.
func TestJoinStreamAndPairs(t *testing.T) {
	set, err := data.GeneratePolygons(data.PolygonConfig{
		Name: "stream", NumRegions: 12, Lattice: 64, Seed: 97, BoundaryJitter: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(set.Polygons, WithPrecision(15))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := data.GeneratePoints(data.PointConfig{N: 20000, Seed: 98})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []JoinMode{Approximate, Exact} {
		pairs, pst := joinPairs(t, idx, pts, mode, 4)
		if int64(len(pairs)) != pst.Pairs() {
			t.Fatalf("%v: %d pairs, stats say %d", mode, len(pairs), pst.Pairs())
		}
		// Per-point ground truth through the single-point API.
		var res Result
		want := map[Pair]bool{}
		for i, ll := range pts {
			var hit bool
			if mode == Exact {
				hit = mustLookup(t, idx, ll, Exact, &res)
			} else {
				hit = mustLookup(t, idx, ll, Approximate, &res)
			}
			if !hit {
				continue
			}
			for _, id := range res.True {
				want[Pair{Point: i, Polygon: id, Class: TrueHit}] = true
			}
			for _, id := range res.Candidates {
				want[Pair{Point: i, Polygon: id, Class: Candidate}] = true
			}
		}
		if mode == Approximate {
			if len(want) != len(pairs) {
				t.Fatalf("%v: %d pairs, ground truth %d", mode, len(pairs), len(want))
			}
			for _, p := range pairs {
				if !want[p] {
					t.Fatalf("%v: unexpected pair %+v", mode, p)
				}
			}
		} else {
			// An exact Lookup folds confirmed candidates into True; compare on
			// (point, polygon) only.
			got := map[[2]uint64]bool{}
			for _, p := range pairs {
				got[[2]uint64{uint64(p.Point), uint64(p.Polygon)}] = true
			}
			if len(got) != len(want) {
				t.Fatalf("%v: %d distinct pairs, ground truth %d", mode, len(got), len(want))
			}
			for p := range want {
				if !got[[2]uint64{uint64(p.Point), uint64(p.Polygon)}] {
					t.Fatalf("%v: missing pair %+v", mode, p)
				}
			}
		}
		// JoinStream delivers the same multiset.
		var streamed []Pair
		sst, err := idx.JoinStreamContext(context.Background(), pts, mode, 4, func(p Pair) { streamed = append(streamed, p) })
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(streamed)) != sst.Pairs() || len(streamed) != len(pairs) {
			t.Fatalf("%v: streamed %d pairs, want %d", mode, len(streamed), len(pairs))
		}
		// Join equals the aggregation of the pair list.
		counts, _ := joinCounts(t, idx, pts, mode, 2)
		agg := make([]uint64, idx.Status().Live)
		for _, p := range pairs {
			agg[p.Polygon]++
		}
		for i := range counts {
			if counts[i] != agg[i] {
				t.Fatalf("%v polygon %d: Join %d, Pairs aggregation %d", mode, i, counts[i], agg[i])
			}
		}
	}
}
