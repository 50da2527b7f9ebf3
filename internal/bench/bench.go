// Package bench assembles the datasets, indexes, and measurement loops that
// regenerate every table and figure of the paper's evaluation (§III). It is
// shared by cmd/actbench (the CLI harness) and the root-level testing.B
// benchmarks so both report the same quantities.
package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/grid"
	"github.com/actindex/act/internal/join"
	"github.com/actindex/act/internal/rtree"
)

// Precisions are the paper's three evaluated precision bounds, in meters.
var Precisions = []float64{60, 15, 4}

// Dataset bundles a polygon set with a query point stream.
type Dataset struct {
	Set    *data.PolygonSet
	Points []geo.LatLng
}

// Config scales the experiments to the machine at hand.
type Config struct {
	// CensusRegions is the census-blocks polygon count. The paper uses
	// 39184; the default (4000) keeps a full harness run within minutes
	// on a laptop-class machine.
	CensusRegions int
	// Points is the number of join points per measurement (paper: 1 B;
	// default 2 M — steady-state throughput is reached far below that).
	Points int
	// Seed drives all dataset generation.
	Seed int64
	// Distribution selects the point workload (default Uniform, matching
	// taxi-dataset-like area coverage).
	Distribution data.Distribution
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.CensusRegions == 0 {
		c.CensusRegions = 4000
	}
	if c.Points == 0 {
		c.Points = 2_000_000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Datasets generates the three polygon datasets of the paper with point
// streams attached.
func Datasets(cfg Config) ([]*Dataset, error) {
	cfg = cfg.withDefaults()
	gens := []func() (*data.PolygonSet, error){
		func() (*data.PolygonSet, error) { return data.Boroughs(cfg.Seed) },
		func() (*data.PolygonSet, error) { return data.Neighborhoods(cfg.Seed) },
		func() (*data.PolygonSet, error) { return data.CensusBlocks(cfg.Seed, cfg.CensusRegions) },
	}
	out := make([]*Dataset, 0, len(gens))
	for _, gen := range gens {
		set, err := gen()
		if err != nil {
			return nil, err
		}
		pts, err := data.GeneratePoints(data.PointConfig{
			N: cfg.Points, Seed: cfg.Seed + 1, Distribution: cfg.Distribution, Polygons: set,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, &Dataset{Set: set, Points: pts})
	}
	return out, nil
}

// Baseline bundles the R-tree comparator: polygon MBRs in grid space.
type Baseline struct {
	Grid      grid.Grid
	Tree      *rtree.Tree
	Projected []*geom.Polygon
	BuildTime time.Duration
}

// BuildBaseline indexes the polygon MBRs in an R*-tree with the paper's
// node capacity.
func BuildBaseline(set *data.PolygonSet) (*Baseline, error) {
	g := grid.NewPlanar()
	tree, err := rtree.New(rtree.DefaultMaxEntries)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	projected := make([]*geom.Polygon, len(set.Polygons))
	for i, p := range set.Polygons {
		_, pp, err := grid.ProjectPolygon(g, p)
		if err != nil {
			return nil, err
		}
		projected[i] = pp
		tree.Insert(pp.Bound(), uint32(i))
	}
	return &Baseline{
		Grid: g, Tree: tree, Projected: projected, BuildTime: time.Since(start),
	}, nil
}

// Record is one machine-readable measurement row: the throughput of one
// joiner on one dataset at one thread count. cmd/actbench serializes these
// to BENCH_<experiment>.json for the experiments that regenerate a paper
// figure (fig3, scale).
type Record struct {
	Experiment string  `json:"experiment"`
	Dataset    string  `json:"dataset"`
	Joiner     string  `json:"joiner"`
	PrecisionM float64 `json:"precisionMeters,omitempty"`
	Threads    int     `json:"threads"`
	Points     int     `json:"points"`
	Pairs      int64   `json:"pairs"`
	MPtsPerSec float64 `json:"throughputMPts"`
	// Scale accounting, filled only by the scale experiment: LoadMode names
	// the serving path the index was loaded through ("heap" = copying
	// deserializer, "mmap" = zero-copy mapped file, "mmap-fallback" = mmap
	// requested but unavailable on the platform), LoadMillis the one-time
	// load latency of that path, NumCPU the machine's CPU count (so a
	// flat curve on a small machine is distinguishable from a scaling
	// failure), and ScaleX the speedup over the same path's first
	// thread-count row (pointers: a measured zero and the 1.0 baseline row
	// must survive serialization).
	LoadMode   string   `json:"loadMode,omitempty"`
	LoadMillis *float64 `json:"loadMillis,omitempty"`
	NumCPU     int      `json:"numCPU,omitempty"`
	ScaleX     *float64 `json:"scaleX,omitempty"`
}

// record converts join stats into a Record.
func record(experiment, dataset string, precision float64, st join.Stats) Record {
	return Record{
		Experiment: experiment,
		Dataset:    dataset,
		Joiner:     st.Joiner,
		PrecisionM: precision,
		Threads:    st.Threads,
		Points:     st.Points,
		Pairs:      st.Pairs(),
		MPtsPerSec: st.ThroughputMPts,
	}
}

// MeasureJoin runs the joiner over the points and returns the best-of-reps
// stats (throughput fluctuates with GC; best-of is the standard practice
// the paper's M points/s numbers imply).
func MeasureJoin(j join.Joiner, points []geo.LatLng, numPolygons, threads, reps int) join.Stats {
	if reps < 1 {
		reps = 1
	}
	var best join.Stats
	for r := 0; r < reps; r++ {
		_, st := join.Run(j, points, numPolygons, threads)
		if r == 0 || st.ThroughputMPts > best.ThroughputMPts {
			best = st
		}
	}
	return best
}

// IndexPerPrecision builds one act.Index per precision for the dataset.
func IndexPerPrecision(set *data.PolygonSet, precisions []float64, gk act.GridKind) (map[float64]*act.Index, error) {
	out := make(map[float64]*act.Index, len(precisions))
	for _, eps := range precisions {
		idx, err := act.New(set.Polygons, act.WithPrecision(eps), act.WithGrid(gk))
		if err != nil {
			return nil, fmt.Errorf("bench: %s at %.0f m: %w", set.Name, eps, err)
		}
		out[eps] = idx
	}
	return out, nil
}

// section prints a report heading.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n", title)
	for range title {
		fmt.Fprint(w, "=")
	}
	fmt.Fprintln(w)
}
