package main

import (
	"context"
	"fmt"
	"math"
	"slices"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/grid"
	"github.com/actindex/act/internal/rtree"
)

// oracle answers "which polygons contain this point" without the index: an
// R-tree over bounding boxes, then an exact point-in-polygon test of every
// box hit. It shares geom's predicate with the index but none of the
// covering, trie or refinement code.
type oracle struct {
	g     grid.Grid
	src   []*act.Polygon
	polys []*geom.Polygon
	tree  *rtree.Tree
	// truth[i] lists, ascending, the polygons containing sample point i.
	truth [][]uint32
}

func newOracle(polygons []*act.Polygon, sample []act.LatLng) (*oracle, error) {
	o := &oracle{g: grid.NewPlanar(), src: polygons}
	tree, err := rtree.New(rtree.DefaultMaxEntries)
	if err != nil {
		return nil, err
	}
	o.tree = tree
	for i, p := range polygons {
		_, pp, err := grid.ProjectPolygon(o.g, p)
		if err != nil {
			return nil, fmt.Errorf("oracle: polygon %d: %w", i, err)
		}
		o.polys = append(o.polys, pp)
		tree.Insert(pp.Bound(), uint32(i))
	}
	o.truth = make([][]uint32, len(sample))
	var buf []uint32
	for i, ll := range sample {
		o.truth[i], buf = o.containing(ll, buf)
	}
	return o, nil
}

// containing returns the ascending ids of the base polygons containing ll.
func (o *oracle) containing(ll act.LatLng, buf []uint32) (ids, scratch []uint32) {
	_, pt := o.g.Project(ll)
	buf = o.tree.QueryPoint(pt, buf[:0])
	for _, id := range buf {
		if o.polys[id].ContainsPointExact(pt) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids, buf
}

// boundaryMeters is the distance from ll to the nearest edge of p, on the
// local tangent plane at ll — exact to well under a metre at the few
// hundred metres where the precision bound is decided.
func boundaryMeters(p *act.Polygon, ll act.LatLng) float64 {
	local := func(v act.LatLng) geom.Point {
		return geom.Point{
			X: geo.LngDegreesToMeters(v.Lng-ll.Lng, ll.Lat),
			Y: geo.LatDegreesToMeters(v.Lat - ll.Lat),
		}
	}
	best := math.Inf(1)
	ring := func(r []act.LatLng) {
		for i := range r {
			a, b := local(r[i]), local(r[(i+1)%len(r)])
			best = min(best, geom.DistPointSegment(geom.Point{}, a, b))
		}
	}
	ring(p.Outer)
	for _, h := range p.Holes {
		ring(h)
	}
	return best
}

// expected is what a correct approximate lookup of one sample point
// returns, both lists ascending.
type expected struct {
	trueHits   []uint32
	candidates []uint32
}

func (e expected) matches(a lookupAnswer) bool {
	slices.Sort(a.True)
	slices.Sort(a.Candidates)
	return slices.Equal(e.trueHits, a.True) && slices.Equal(e.candidates, a.Candidates)
}

// checkIndex joins the sample through ix in both modes and holds the result
// against the oracle: the exact join must equal it, the approximate join
// must contain it, and every approximate-only pair must be a candidate
// within eps of the polygon's boundary. It returns the approximate answer
// per sample point — itself now oracle-checked — for the served phases to
// compare responses with, and the number of sample points that failed.
func (o *oracle) checkIndex(ix *act.Index, sample []act.LatLng, eps float64) ([]expected, int, error) {
	ctx := context.Background()
	exact, _, err := ix.PairsContext(ctx, sample, act.Exact, 1)
	if err != nil {
		return nil, 0, err
	}
	approx, _, err := ix.PairsContext(ctx, sample, act.Approximate, 1)
	if err != nil {
		return nil, 0, err
	}
	bad := make([]bool, len(sample))
	var got []uint32
	for i, k := 0, 0; i < len(sample); i++ {
		got = got[:0]
		for ; k < len(exact) && exact[k].Point == i; k++ {
			got = append(got, exact[k].Polygon)
		}
		if !slices.Equal(got, o.truth[i]) {
			bad[i] = true
		}
	}
	exp := make([]expected, len(sample))
	for _, p := range approx {
		e := &exp[p.Point]
		if p.Class == act.TrueHit {
			e.trueHits = append(e.trueHits, p.Polygon)
		} else {
			e.candidates = append(e.candidates, p.Polygon)
		}
		if _, inside := slices.BinarySearch(o.truth[p.Point], p.Polygon); inside {
			continue
		}
		// An approximate-only pair: allowed only as a candidate within eps.
		if p.Class == act.TrueHit || boundaryMeters(o.src[p.Polygon], sample[p.Point]) > eps*1.001 {
			bad[p.Point] = true
		}
	}
	for i := range exp {
		e := exp[i]
		for _, id := range o.truth[i] {
			_, t := slices.BinarySearch(e.trueHits, id)
			_, c := slices.BinarySearch(e.candidates, id)
			if !t && !c {
				bad[i] = true // a false negative
			}
		}
	}
	failed := 0
	for _, b := range bad {
		if b {
			failed++
		}
	}
	return exp, failed, nil
}

// joinExpectation sums what POST /join must report for a body of points
// whose per-point answers are exp.
func joinExpectation(exp []expected) joinCounts {
	var jc joinCounts
	for _, e := range exp {
		jc.TrueHits += int64(len(e.trueHits))
		jc.CandidateHits += int64(len(e.candidates))
		if len(e.trueHits)+len(e.candidates) == 0 {
			jc.Misses++
		}
	}
	jc.Pairs = jc.TrueHits + jc.CandidateHits
	jc.Lines = jc.Pairs
	return jc
}

// model is the polygon set the churned server must be serving: the base
// polygons and the schedule's zones, each live or removed.
type model struct {
	or          *oracle
	zoneGeom    []*geom.Polygon
	zoneTree    *rtree.Tree // over the zones' bounding boxes, as the oracle's is over the base
	zoneID      []uint32    // id the server assigned; valid where zoneLive
	zoneLive    []bool
	baseRemoved map[uint32]bool
	maxID       int64 // highest id acknowledged so far; ids must only grow
}

func newModel(or *oracle, sched schedule) (*model, error) {
	m := &model{
		or:          or,
		zoneID:      make([]uint32, len(sched.zones)),
		zoneLive:    make([]bool, len(sched.zones)),
		baseRemoved: map[uint32]bool{},
		maxID:       int64(len(or.polys)) - 1,
	}
	var err error
	if m.zoneTree, err = rtree.New(rtree.DefaultMaxEntries); err != nil {
		return nil, err
	}
	for i, z := range sched.zones {
		_, gp, err := grid.ProjectPolygon(or.g, z.poly)
		if err != nil {
			return nil, fmt.Errorf("model: zone %d: %w", i, err)
		}
		m.zoneGeom = append(m.zoneGeom, gp)
		m.zoneTree.Insert(gp.Bound(), uint32(i))
	}
	return m, nil
}

// truth returns the ascending ids of the live polygons containing ll.
func (m *model) truth(ll act.LatLng) []uint32 {
	base, _ := m.or.containing(ll, nil)
	ids := base[:0]
	for _, id := range base {
		if !m.baseRemoved[id] {
			ids = append(ids, id)
		}
	}
	_, pt := m.or.g.Project(ll)
	for _, i := range m.zoneTree.QueryPoint(pt, nil) {
		if m.zoneLive[i] && m.zoneGeom[i].ContainsPointExact(pt) {
			ids = append(ids, m.zoneID[i])
		}
	}
	slices.Sort(ids)
	return ids
}
