package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/actindex/act/internal/data"
)

// deterministic lists the metrics that must repeat exactly when a workload
// runs twice from one seed: sizes, counts and ratios of counts.
var deterministic = []string{
	"index_bytes_per_polygon", "candidate_share",
	"core.node_accesses_per_point", "join.true_hit_share", "join.miss_share", "join.pairs_per_point",
	"geostore.refine_accept_ratio", "cover.cells_per_polygon", "supercover.cells", "core.nodes",
	"core.trie_bytes", "core.table_bytes", "core.max_depth", "geostore.bytes", "act.index_file_bytes",
	"wal.bytes_per_record",
}

// TestSmoke runs all four workloads at toy scale, untraced and traced, and
// checks what the driver and a reader of the trace rely on. That
// a run reports exactly the metrics BENCHMARK.json names is checked by the
// harness itself: it refuses to record a metric the file does not list, and
// a run fails if a metric of its table was not measured.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts actserve children")
	}
	t.Cleanup(killAllChildren)
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	actserve, err := buildActserve(root, filepath.Join(root, ".bench_build", "bin"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(w *workload, trace int) map[string]measured {
		t.Helper()
		var report bytes.Buffer
		o := options{workload: w.name, seed: 7, seconds: referenceSeconds, trace: trace, toy: true, root: root, actserve: actserve}
		res, err := runOnce(o, w, &report)
		if err != nil {
			t.Fatalf("%s trace=%d: %v", w.name, trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, report.String())
		}
		table := sp.EndToEnd
		if trace == 1 {
			table = sp.PerLayer
		}
		if len(res.Metrics) != len(table) {
			t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(table))
		}
		for _, m := range table {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s trace=%d: metric %s: got %+v, want unit %q", w.name, trace, m.Name, got, m.Unit)
			}
		}
		// The traced run's result line has the per-layer table only; the
		// line before it has everything the run measured.
		lines := bytes.Split(bytes.TrimSpace(report.Bytes()), []byte{'\n'})
		var all map[string]measured
		rest, _ := bytes.CutPrefix(lines[len(lines)-1], []byte(allMetricsPrefix))
		if err := json.Unmarshal(rest, &all); err != nil {
			t.Fatalf("%s trace=%d: %sline: %v", w.name, trace, allMetricsPrefix, err)
		}
		return all
	}
	// At toy scale three workloads share their inputs (census blocks, uniform
	// points, one seed), so between them every deterministic metric has two
	// or three same-seed runs to agree across; the fourth's are held against
	// its own untraced run.
	var shared map[string]measured
	for i := range workloads {
		w := &workloads[i]
		untraced, traced := run(w, 0), run(w, 1)
		same := []map[string]measured{untraced}
		if w.dist == data.Uniform {
			if shared == nil {
				shared = traced
			}
			same = append(same, shared)
		}
		for _, name := range deterministic {
			for _, other := range same {
				a, ok := other[name]
				if b := traced[name]; ok && a.Value != b.Value {
					t.Errorf("%s: %s is %v in one run and %v in another from one seed", w.name, name, a.Value, b.Value)
				}
			}
		}
		checkTrace(t, filepath.Join(root, "benchmark", "out", w.name+".trace.json"))
	}
}

// checkTrace reads a written trace back: spans must nest inside their
// parents, and in every ladder the self times must add up to the root within
// 5 % — a rung naming a parent that is not there, or counted under two,
// breaks the sum.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Ladder []rung `json:"ladder"`
		Spans  []span `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(doc.Spans) == 0 || len(doc.Ladder) == 0 {
		t.Fatalf("%s: %d spans, %d rungs", path, len(doc.Spans), len(doc.Ladder))
	}
	for _, s := range doc.Spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d %q ends before it starts", path, s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p := doc.Spans[s.Parent-1]
		// A request span is stamped by the client after the fact; allow
		// it the clock reads in between.
		const slack = int64(1e6)
		if s.Start < p.Start-slack || s.End > p.End+slack {
			t.Errorf("%s: span %d %q [%d,%d] outside parent %q [%d,%d]", path, s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	var root rung
	sum := 0.0
	flush := func() {
		if root.Name != "" && (math.Abs(sum-root.Time) > 0.05*math.Abs(root.Time)) {
			t.Errorf("%s: ladder %q: self times add up to %.4g %s, root is %.4g", path, root.Name, sum, root.Unit, root.Time)
		}
	}
	for _, r := range doc.Ladder {
		if r.Parent == "" {
			flush()
			root, sum = r, 0
		}
		sum += r.Self
	}
	flush()
}
