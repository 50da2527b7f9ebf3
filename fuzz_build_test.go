package act

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/core"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/grid"
	"github.com/actindex/act/internal/supercover"
)

// descentPolygons generates a polygon set for FuzzBuildDescent from seed:
// overlapping boxes, boxes nested in others, boxes with holes, boxes
// sharing an edge, triangles small enough to fit one cell, a triangle
// around a face's center (whose start cell is the face cell), and — on the
// cube-face grid — sets spread over several faces.
func descentPolygons(seed int64, gk GridKind) []*Polygon {
	rng := rand.New(rand.NewSource(seed))
	box := func(lat, lng, dlat, dlng float64) []LatLng {
		return []LatLng{{Lat: lat, Lng: lng}, {Lat: lat, Lng: lng + dlng}, {Lat: lat + dlat, Lng: lng + dlng}, {Lat: lat + dlat, Lng: lng}}
	}
	// Centers near which the polygons lie: one or two, or on the cube-face
	// grid up to all six faces' centers.
	centers := []LatLng{{Lat: 40.7, Lng: -74}, {Lat: 0, Lng: 0}}
	if gk == CubeFaceGrid {
		centers = append(centers, LatLng{Lat: 0, Lng: 90}, LatLng{Lat: 60, Lng: 10},
			LatLng{Lat: 0, Lng: 179.5}, LatLng{Lat: 5, Lng: -90}, LatLng{Lat: -60, Lng: 20})
	}
	centers = centers[:1+rng.Intn(len(centers))]
	var polys []*Polygon
	for n := 1 + rng.Intn(8); n > 0; n-- {
		c := centers[rng.Intn(len(centers))]
		lat := c.Lat + (rng.Float64()-0.5)*0.2
		lng := c.Lng + (rng.Float64()-0.5)*0.2
		dlat, dlng := 0.005+rng.Float64()*0.05, 0.005+rng.Float64()*0.05
		switch rng.Intn(6) {
		case 0: // a box, overlapping others at random
			polys = append(polys, &Polygon{Outer: box(lat, lng, dlat, dlng)})
		case 1: // a box with a box nested in it
			polys = append(polys, &Polygon{Outer: box(lat, lng, dlat, dlng)},
				&Polygon{Outer: box(lat+dlat/4, lng+dlng/4, dlat/2, dlng/2)})
		case 2: // a box with a hole
			polys = append(polys, &Polygon{Outer: box(lat, lng, dlat, dlng),
				Holes: [][]LatLng{box(lat+dlat/3, lng+dlng/3, dlat/3, dlng/3)}})
		case 3: // two boxes sharing an edge
			polys = append(polys, &Polygon{Outer: box(lat, lng, dlat, dlng)},
				&Polygon{Outer: box(lat, lng+dlng, dlat, dlng/2)})
		case 4: // a triangle small enough for one cell
			d := 1e-5 * (1 + rng.Float64())
			polys = append(polys, &Polygon{Outer: []LatLng{{Lat: lat, Lng: lng}, {Lat: lat, Lng: lng + d}, {Lat: lat + d, Lng: lng}}})
		case 5: // a triangle around the center, whose start cell is the face cell
			d := 0.01 + rng.Float64()*0.05
			polys = append(polys, &Polygon{Outer: []LatLng{{Lat: c.Lat - d, Lng: c.Lng - d}, {Lat: c.Lat - d, Lng: c.Lng + d}, {Lat: c.Lat + d, Lng: c.Lng}}})
		}
	}
	return polys
}

// FuzzBuildDescent holds the one descent that covers and merges a polygon
// set (cover.Coverer.Descend, which New runs) to the merge it replaced: on
// random polygon sets (descentPolygons), its cells and references must
// equal supercover.Builder.Build over each polygon's Coverer.Cover, and
// New's trie must equal core.Build of that super covering word for word,
// with the same cell count and achieved precision.
func FuzzBuildDescent(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed, uint8(seed), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, config, fanoutIdx uint8) {
		gk := []GridKind{PlanarGrid, CubeFaceGrid}[config%2]
		eps := []float64{50, 200, 1000, 5000}[config/2%4]
		fanout := []int{4, 16, 64, 256}[fanoutIdx%4]
		polys := descentPolygons(seed, gk)
		pl, err := newPipeline(gk, eps, fanout, false)
		if err != nil {
			t.Fatal(err)
		}

		// The oracle: each polygon covered alone, the coverings merged.
		var b supercover.Builder
		achieved := 0.0
		shapes := make([]cover.Shape, len(polys))
		for i, p := range polys {
			face, poly, err := grid.ProjectPolygon(pl.grid, p)
			if err != nil {
				t.Fatal(err)
			}
			shapes[i] = cover.Shape{Face: face, Poly: poly, ID: uint32(i)}
			cov, err := pl.coverer.Cover(p)
			if err != nil {
				t.Fatal(err)
			}
			achieved = max(achieved, cov.AchievedPrecisionMeters)
			if err := b.Add(uint32(i), cov); err != nil {
				t.Fatal(err)
			}
		}
		sc := b.Build()

		// The descent's cells and references, in order.
		var cells []cellid.ID
		var refs [][]supercover.Ref
		n, got, err := pl.coverer.Descend(shapes, nil, func(c cellid.ID, r []supercover.Ref) error {
			cells, refs = append(cells, c), append(refs, slices.Clone(r))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != sc.NumCells() || len(cells) != sc.NumCells() || got != achieved {
			t.Fatalf("descent: %d cells (%d handed over), achieved %v; merge: %d cells, achieved %v", n, len(cells), got, sc.NumCells(), achieved)
		}
		for i := range cells {
			if cells[i] != sc.Cell(i) || !slices.Equal(refs[i], sc.Refs(i)) {
				t.Fatalf("cell %d: descent %v %v, merge %v %v", i, cells[i], refs[i], sc.Cell(i), sc.Refs(i))
			}
		}

		// New's trie is the merge's, word for word.
		ix, err := New(polys, WithPrecision(eps), WithGrid(gk), WithFanout(fanout), WithGeometryStore(false))
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Build(sc, core.Config{Fanout: fanout})
		if err != nil {
			t.Fatal(err)
		}
		gf, wf := ix.live.Load().trie.Flat(), want.Flat()
		if gf.Roots != wf.Roots || gf.Skips != wf.Skips || gf.Prefixes != wf.Prefixes ||
			!slices.Equal(gf.Nodes, wf.Nodes) || !slices.Equal(gf.Table, wf.Table) {
			t.Fatalf("New's trie differs from the merge's: roots %v/%v skips %v/%v, %d/%d words, %d/%d table entries",
				gf.Roots, wf.Roots, gf.Skips, wf.Skips, len(gf.Nodes), len(wf.Nodes), len(gf.Table), len(wf.Table))
		}
		st := ix.Status().Build
		if st.IndexedCells != sc.NumCells() || st.AchievedPrecisionMeters != achieved {
			t.Fatalf("New: %d cells, achieved %v; merge: %d cells, achieved %v", st.IndexedCells, st.AchievedPrecisionMeters, sc.NumCells(), achieved)
		}
	})
}
