package main

import (
	"math"
	"math/rand"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geo"
)

// inputs is everything a run feeds the program, all derived from the seed.
type inputs struct {
	set *data.PolygonSet
	// bulk is one bulk-join slice; its first samplePoints points are the
	// oracle-checked sample that request points are drawn from.
	bulk      []act.LatLng
	sample    []act.LatLng
	generateS float64
}

// mapSeed generates the polygons. The map is the same on every run — a
// city's zones do not change between runs, its traffic does — so the sizes
// and counts that depend only on the map repeat exactly; the seed of a run
// drives the points, the zones inserted and the mutation schedule.
const mapSeed = 1

func generate(w *workload, seed int64, sz sizes) (*inputs, error) {
	t0 := time.Now()
	set, err := w.polygons(mapSeed)
	if err != nil {
		return nil, err
	}
	pts, err := data.GeneratePoints(data.PointConfig{
		N:            max(sz.bulkPoints, sz.samplePoints),
		Seed:         seed + 1,
		Distribution: w.dist,
		Polygons:     set,
		JitterMeters: w.jitterEps * w.epsilon,
	})
	if err != nil {
		return nil, err
	}
	return &inputs{
		set:       set,
		bulk:      pts[:sz.bulkPoints],
		sample:    pts[:sz.samplePoints],
		generateS: time.Since(t0).Seconds(),
	}, nil
}

// zone is one polygon the mutation schedule inserts: a small convex zone,
// like a pickup area drawn on a map.
type zone struct {
	poly   *act.Polygon
	center act.LatLng
	body   []byte // GeoJSON request body
}

func makeZone(rng *rand.Rand, bound geo.Rect) zone {
	c := act.LatLng{
		Lat: bound.MinLat + rng.Float64()*(bound.MaxLat-bound.MinLat),
		Lng: bound.MinLng + rng.Float64()*(bound.MaxLng-bound.MinLng),
	}
	n := 6 + rng.Intn(5)
	radius := 100 + rng.Float64()*200 // meters
	outer := make([]act.LatLng, n)
	for i := range outer {
		a := 2 * math.Pi * float64(i) / float64(n)
		r := radius * (0.8 + 0.2*rng.Float64())
		outer[i] = act.LatLng{
			Lat: c.Lat + geo.MetersToLatDegrees(r*math.Sin(a)),
			Lng: c.Lng + geo.MetersToLngDegrees(r*math.Cos(a), c.Lat),
		}
	}
	p := &act.Polygon{Outer: outer}
	return zone{poly: p, center: c, body: polygonBody(p)}
}

// mutation is one step of the schedule: an insert of a new zone, or a
// remove of either a base polygon or the zone an earlier step inserted.
type mutation struct {
	insert bool
	zone   int    // insert: index into schedule.zones; remove of a zone: likewise
	body   []byte // insert: the GeoJSON request body
	base   int    // remove of a base polygon: its id; -1 otherwise
	probe  act.LatLng
}

// schedule is the timed mutation steps plus the inserts that land the
// server afterwards (run.land); zones holds the polygons of both.
type schedule struct {
	zones   []zone
	steps   []mutation
	landing []mutation
}

// makeSchedule builds sz.mutations steps of 3 inserts : 1 remove. Removes
// alternate between base polygons that contain a sample point (so the oracle
// can see them go) and zones inserted earlier, wherever in the server they
// live by then.
func makeSchedule(seed int64, sz sizes, or *oracle, sample []act.LatLng) schedule {
	rng := rand.New(rand.NewSource(seed + 2))
	bound := data.NYCBound()
	var s schedule
	insert := func() mutation {
		z := makeZone(rng, bound)
		s.zones = append(s.zones, z)
		return mutation{insert: true, zone: len(s.zones) - 1, body: z.body, base: -1, probe: z.center}
	}
	removedBase := map[int]bool{}
	var live []int // zones inserted and not yet removed
	for i := 0; i < sz.mutations; i++ {
		if i%4 != 3 {
			m := insert()
			live = append(live, m.zone)
			s.steps = append(s.steps, m)
			continue
		}
		if i%8 == 7 {
			// A map whose every sampled polygon is gone falls through to
			// removing a zone.
			victim := -1
			for try := 0; try < 1000 && victim < 0; try++ {
				j := rng.Intn(len(sample))
				if t := or.truth[j]; len(t) > 0 && !removedBase[int(t[0])] {
					victim = int(t[0])
					s.steps = append(s.steps, mutation{base: victim, probe: sample[j]})
				}
			}
			if victim >= 0 {
				removedBase[victim] = true
				continue
			}
		}
		k := rng.Intn(len(live))
		s.steps = append(s.steps, mutation{zone: live[k], base: -1, probe: s.zones[live[k]].center})
		live = append(live[:k], live[k+1:]...)
	}
	for i := 0; i < sz.landMax+sz.tail; i++ {
		s.landing = append(s.landing, insert())
	}
	return s
}
