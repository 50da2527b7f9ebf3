// Package bench holds what the root testing.B benchmarks, which regenerate
// the paper's evaluation (§III), need beyond the public API: the paper's
// precisions, the R-tree baseline of Figure 3, and an index assembled from
// the internal pieces, exposing the knobs the design ablations turn.
package bench

import (
	"slices"

	"github.com/actindex/act/internal/core"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/geostore"
	"github.com/actindex/act/internal/grid"
	"github.com/actindex/act/internal/rtree"
	"github.com/actindex/act/internal/supercover"
)

// Precisions are the paper's three evaluated precision bounds, in meters.
var Precisions = []float64{60, 15, 4}

// Baseline bundles the R-tree comparator: polygon MBRs in grid space.
type Baseline struct {
	Grid grid.Grid
	Tree *rtree.Tree
}

// BuildBaseline indexes the polygon MBRs in an R*-tree with the paper's
// node capacity.
func BuildBaseline(set *data.PolygonSet) (*Baseline, error) {
	g := grid.NewPlanar()
	tree, err := rtree.New(rtree.DefaultMaxEntries)
	if err != nil {
		return nil, err
	}
	for i, p := range set.Polygons {
		_, pp, err := grid.ProjectPolygon(g, p)
		if err != nil {
			return nil, err
		}
		tree.Insert(pp.Bound(), uint32(i))
	}
	return &Baseline{Grid: g, Tree: tree}, nil
}

// RawOptions parameterizes RawBuild for ablation studies.
type RawOptions struct {
	Precision       float64
	Fanout          int
	Grid            grid.Grid
	DisableInlining bool
	// StripInterior discards the interior/boundary distinction, treating
	// every covering cell as a candidate — disabling true-hit filtering.
	StripInterior bool
}

// RawPipeline is an index assembled from the internal pieces, exposing the
// knobs the public API hides.
type RawPipeline struct {
	Grid      grid.Grid
	Trie      *core.Trie
	Store     *geostore.Store
	CellCount int
}

// RawBuild builds an ACT pipeline with explicit internal options.
func RawBuild(set *data.PolygonSet, opts RawOptions) (*RawPipeline, error) {
	g := opts.Grid
	if g == nil {
		g = grid.NewPlanar()
	}
	fanout := opts.Fanout
	if fanout == 0 {
		fanout = 256
	}
	coverer, err := cover.NewCoverer(g, opts.Precision)
	if err != nil {
		return nil, err
	}
	var scb supercover.Builder
	projected := make([]*geom.Polygon, len(set.Polygons))
	for i, p := range set.Polygons {
		cov, err := coverer.Cover(p)
		if err != nil {
			return nil, err
		}
		if opts.StripInterior {
			stripInterior(cov)
		}
		if err := scb.Add(uint32(i), cov); err != nil {
			return nil, err
		}
		if _, projected[i], err = grid.ProjectPolygon(g, p); err != nil {
			return nil, err
		}
	}
	sorted := scb.Sort()
	trie, err := core.Build(sorted, core.Config{Fanout: fanout, DisableInlining: opts.DisableInlining})
	if err != nil {
		return nil, err
	}
	store, err := geostore.New(projected)
	if err != nil {
		return nil, err
	}
	return &RawPipeline{Grid: g, Trie: trie, Store: store, CellCount: sorted.NumCells()}, nil
}

// stripInterior makes every cell of a covering a candidate (ablation C),
// keeping Boundary sorted by id as Covering documents.
func stripInterior(cov *cover.Covering) {
	cov.Boundary = slices.Concat(cov.Boundary, cov.Interior)
	slices.Sort(cov.Boundary)
	cov.Interior = nil
}
