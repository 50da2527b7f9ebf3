// Command actbench regenerates the tables and figures of the paper's
// evaluation on synthetic NYC-like data:
//
//	actbench -experiment table1           # Table I: index metrics
//	actbench -experiment fig3             # Fig. 3: single-threaded throughput
//	actbench -experiment scale            # Fig. 4: thread scalability 1→NumCPU,
//	                                      # heap-loaded vs mmap-served
//	                                      # ("fig4" is an alias)
//	actbench -experiment ablation         # design-choice ablations
//	actbench -experiment all              # everything
//
// These are the paper's own figures. Performance claims about this
// repository are made by the benchmark in benchmark/ (see BENCHMARK.json),
// not here.
//
// Scale knobs:
//
//	-census N    census-blocks polygon count (default 4000; paper: 39184)
//	-points N    join points per measurement (default 2000000; paper: 1e9)
//	-threads a,b thread counts for scale (default auto: powers of two up to
//	             NumCPU, plus a 2×NumCPU oversubscription row)
//	-dist d      point distribution: uniform|clustered|adversarial
//	-seed S      dataset seed
//
// Profiling (any experiment):
//
//	-cpuprofile f   write a CPU profile covering the selected experiments
//	-memprofile f   write a heap profile taken after the experiments
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"github.com/actindex/act/internal/bench"
	"github.com/actindex/act/internal/data"
)

func main() {
	experiment := flag.String("experiment", "all", "table1 | fig3 | scale (alias fig4) | ablation | all")
	census := flag.Int("census", 4000, "census-blocks polygon count (paper: 39184)")
	points := flag.Int("points", 2_000_000, "join points per measurement (paper: 1e9)")
	seed := flag.Int64("seed", 42, "dataset generation seed")
	threadsFlag := flag.String("threads", "auto", "comma-separated thread counts for scale (auto: 1→NumCPU→2×NumCPU)")
	distFlag := flag.String("dist", "uniform", "point distribution: uniform | clustered | adversarial")
	jsonOut := flag.String("jsonout", ".", "directory for machine-readable BENCH_*.json result files (empty disables)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the experiments to this file")
	flag.Parse()

	var dist data.Distribution
	switch *distFlag {
	case "uniform":
		dist = data.Uniform
	case "clustered":
		dist = data.Clustered
	case "adversarial":
		dist = data.Adversarial
	default:
		fmt.Fprintf(os.Stderr, "actbench: unknown distribution %q\n", *distFlag)
		os.Exit(2)
	}

	var threads []int // nil selects bench.ScaleThreads
	if *threadsFlag != "auto" {
		var err error
		if threads, err = parseThreads(*threadsFlag); err != nil {
			fmt.Fprintf(os.Stderr, "actbench: %v\n", err)
			os.Exit(2)
		}
	}

	// fig4 folded into scale: same curve, now measured over both serving
	// paths. The old name keeps working.
	if *experiment == "fig4" {
		*experiment = "scale"
	}

	cfg := bench.Config{
		CensusRegions: *census,
		Points:        *points,
		Seed:          *seed,
		Distribution:  dist,
	}
	w := os.Stdout
	fmt.Fprintf(w, "actbench: census=%d points=%d dist=%s seed=%d\n",
		*census, *points, dist, *seed)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "actbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "actbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		// Stopped explicitly before exit below; os.Exit in run() skips this
		// deliberately, a partial profile from a failed run is worthless.
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	run := func(name string, f func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "actbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	// measured experiments additionally dump their records as
	// BENCH_<name>.json, so a figure can be plotted without scraping the
	// human-readable tables.
	measured := func(name string, f func() ([]bench.Record, error)) {
		run(name, func() error {
			records, err := f()
			if err != nil {
				return err
			}
			if *jsonOut == "" {
				return nil
			}
			return writeRecords(*jsonOut, name, cfg, records)
		})
	}
	run("table1", func() error { return bench.RunTableI(w, cfg) })
	measured("fig3", func() ([]bench.Record, error) { return bench.RunFig3(w, cfg) })
	measured("scale", func() ([]bench.Record, error) { return bench.RunScale(w, cfg, threads) })
	run("ablation", func() error { return bench.RunAblations(w, cfg) })

	switch *experiment {
	case "table1", "fig3", "scale", "ablation", "all":
	default:
		fmt.Fprintf(os.Stderr, "actbench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "actbench: memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "actbench: memprofile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
}

// benchFile is the schema of a BENCH_*.json result file.
type benchFile struct {
	Config  bench.Config   `json:"config"`
	Records []bench.Record `json:"records"`
}

// writeRecords dumps one experiment's records to dir/BENCH_<name>.json.
func writeRecords(dir, name string, cfg bench.Config, records []bench.Record) error {
	path := filepath.Join(dir, "BENCH_"+name+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(benchFile{Config: cfg, Records: records}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "actbench: wrote %s (%d records)\n", path, len(records))
	return nil
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no thread counts in %q", s)
	}
	return out, nil
}
