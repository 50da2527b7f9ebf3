package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/actindex/act/internal/data"
)

// metric is one named number of BENCHMARK.json.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only
}

// spec is the part of BENCHMARK.json the harness works from: which metrics
// an untraced run reports (end_to_end) and which a traced run (per_layer),
// each with its unit. The file is the only copy of those tables.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`

	units map[string]string
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	s.units = map[string]string{}
	for _, m := range append(append([]metric(nil), s.EndToEnd...), s.PerLayer...) {
		s.units[m.Name] = m.Unit
	}
	if len(s.Workloads) != len(workloads) {
		return nil, fmt.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			return nil, fmt.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, w.Name, workloads[i].name)
		}
	}
	return &s, nil
}

// workload is one set of inputs and the phases that make up its row of the
// metric matrix (README "The matrix"). An untraced run executes the row; a
// traced run executes every phase on every workload, because the per-layer
// table is reported whole.
type workload struct {
	name string
	// polygons generates the map (from mapSeed, not from the run's seed).
	polygons func(seed int64) (*data.PolygonSet, error)
	epsilon  float64
	// dist and jitterEps pick the point stream: Adversarial scatters
	// points jitterEps×ε around boundary vertices.
	dist      data.Distribution
	jitterEps float64

	// served: the user is an HTTP client; setup_s runs to the child's first
	// /healthz 200 and the run times closed-loop requests. Otherwise the
	// user is a batch caller; setup_s is act.New alone and the run times
	// whole in-process joins.
	served bool
	// churn: the child is started with a WAL and the run drives the
	// mutation schedule, and the restarts after it, before the read phases —
	// which then meet a compacted base with a non-empty overlay.
	churn bool
}

func census4000(seed int64) (*data.PolygonSet, error) { return data.CensusBlocks(seed, 4000) }

var workloads = []workload{
	{
		name:     "join_uniform",
		polygons: census4000,
		epsilon:  60,
		dist:     data.Uniform,
	},
	{
		name:      "join_boundary_exact",
		polygons:  data.Neighborhoods,
		epsilon:   60,
		dist:      data.Adversarial,
		jitterEps: 2,
	},
	{
		name:     "serve_read",
		polygons: census4000,
		epsilon:  60,
		dist:     data.Uniform,
		served:   true,
	},
	{
		name:     "serve_churn",
		polygons: census4000,
		epsilon:  60,
		dist:     data.Uniform,
		served:   true,
		churn:    true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
