// Command benchmark is the repository's benchmark: it runs one named
// workload from a seed, checks every output against an oracle, and prints
// each metric by name with its unit. See README.md in this directory.
//
//	bash benchmark/run.sh --workload join_uniform --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it runs the phases of the workload's row of the metric
// matrix and reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it runs every phase, records spans around each layer call,
// prints the per-layer table, writes benchmark/out/<workload>.trace.json
// and reports the per-layer metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"

	"github.com/actindex/act/internal/data"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	toy      bool
	root     string
	repeat   int
	actserve string // a binary built earlier in this process; "": build it
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: join_uniform | join_boundary_exact | serve_read | serve_churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs and the mutation schedule")
	flag.Float64Var(&o.seconds, "seconds", referenceSeconds, "run length the number of slices is scaled to")
	flag.IntVar(&o.trace, "trace", 0, "1: record spans, run every phase and the layer ladder, report the per-layer metrics")
	flag.BoolVar(&o.toy, "toy", false, "smoke-test scale: tiny inputs, a second or two per workload")
	flag.StringVar(&o.root, "root", "..", "checkout under test")
	flag.IntVar(&o.repeat, "repeat", 0, "run the workload N times with seeds seed..seed+N-1 and print median, quartiles and spread per metric")
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllChildren()
		os.Exit(130)
	}()

	err := dispatch(o, os.Stdout)
	killAllChildren()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(o options, out io.Writer) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 || o.seconds > 60 {
		return fmt.Errorf("-seconds %v outside 1..60", o.seconds)
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		return err
	}
	o.root = root
	if o.repeat > 0 {
		return repeat(o, w, out)
	}
	res, err := runOnce(o, w, out)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// result is the last line of output: the contract with the driver.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// allMetricsPrefix starts the report line that carries every metric the run
// measured, for -repeat to collect; the result line carries one table only.
const allMetricsPrefix = "all_metrics "

// runOnce executes one run and prints its report (everything but the final
// JSON line).
func runOnce(o options, w *workload, out io.Writer) (*result, error) {
	sp, err := loadSpec(o.root)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(build, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	actserve := o.actserve
	if actserve == "" {
		if actserve, err = buildActserve(o.root, filepath.Join(build, "bin")); err != nil {
			return nil, err
		}
	}

	traced := o.trace != 0
	wl := *w
	sz := sizesFor(o.seconds, traced)
	if o.toy {
		sz = toySizes()
		wl.polygons = func(seed int64) (*data.PolygonSet, error) { return data.CensusBlocks(seed, 60) }
	}
	// The harness collects at phase boundaries (quiesce), not in the middle
	// of a timed slice: a collection cycle takes the CPU away from whatever
	// is being measured.
	defer debug.SetGCPercent(debug.SetGCPercent(800))
	load := loadAvg1()
	steal0, total0 := cpuTicks()
	pl, err := newPlacement()
	if err != nil {
		return nil, err
	}
	if err := pl.confine(); err != nil {
		return nil, err
	}
	defer pl.release() //nolint:errcheck // the mask was valid when the process started
	r := &run{
		w: &wl, sz: sz, seed: o.seed, dir: dir, actserve: actserve,
		pl: pl, spec: sp, metrics: map[string]float64{},
	}
	if traced {
		r.tr = newTracer()
	}
	alu, chase := weather()
	env := environment(o.root, o.seed, pl, load)
	env = append(env,
		[2]string{"host_alu_ms", strconv.FormatFloat(alu, 'f', 1, 64)},
		[2]string{"host_memchase_ns", strconv.FormatFloat(chase, 'f', 1, 64)})

	root := r.tr.begin(wl.name)
	err = r.execute()
	if err == nil && traced {
		err = r.layers()
	}
	r.tr.end(root)
	if err != nil {
		// The child's log is about to be deleted with the run directory.
		if b, rerr := os.ReadFile(r.childLog()); rerr == nil && len(b) > 0 {
			fmt.Fprintf(os.Stderr, "--- last lines of actserve stderr ---\n%s\n", tail(b, 2000))
		}
		return nil, err
	}
	if traced {
		steal1, total1 := cpuTicks()
		r.set("bench.host_load_at_start", load)
		r.set("bench.host_alu_ms", alu)
		r.set("bench.host_memchase_ns", chase)
		r.set("bench.host_steal_pct", 100*(steal1-steal0)/max(total1-total0, 1))
	}

	fmt.Fprintf(out, "workload %s  trace=%d  seconds=%g\n", wl.name, o.trace, o.seconds)
	for _, kv := range env {
		fmt.Fprintf(out, "env %-18s %s\n", kv[0], kv[1])
	}
	table := sp.EndToEnd
	if traced {
		table = sp.PerLayer
		r.tr.printLadder(out)
		path := filepath.Join(o.root, "benchmark", "out", wl.name+".trace.json")
		if err := r.tr.write(path, env); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "\ntrace written to %s (%d spans)\n", path, len(r.tr.spans))
	}
	fmt.Fprintln(out)
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]measured{}}
	for _, m := range table {
		v, ok := r.metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = measured{v, m.Unit}
		fmt.Fprintf(out, "%-44s %16.6g %s\n", m.Name, v, m.Unit)
	}
	// What the workload's row measured beyond this run's table: untraced,
	// the timings that are reported but not gated (README "The matrix").
	all := map[string]measured{}
	var rest []string
	for name, v := range r.metrics {
		all[name] = measured{v, sp.units[name]}
		if _, listed := res.Metrics[name]; !listed {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	if len(rest) > 0 {
		fmt.Fprintln(out, "\nalso measured, not part of this run's result line:")
	}
	for _, name := range rest {
		fmt.Fprintf(out, "%-44s %16.6g %s\n", name, r.metrics[name], sp.units[name])
	}
	fmt.Fprintln(out)
	for _, n := range r.notes {
		fmt.Fprintf(out, "note: %s\n", n)
	}
	fmt.Fprintf(out, "ops_attempted %d\nops_failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(out, "failure: %s\n", f)
	}
	line, err := json.Marshal(all)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s%s\n", allMetricsPrefix, line)
	return res, nil
}

func tail(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}
