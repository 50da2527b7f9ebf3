package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"github.com/actindex/act"
)

// ScaleThreads returns the default thread counts for the scale experiment:
// powers of two up to the machine's CPU count, the CPU count itself, and
// one 2×NumCPU oversubscription row (the paper's Figure 4 shows continued
// gains from hyperthreads because the workload is memory-latency bound).
func ScaleThreads() []int {
	n := runtime.NumCPU()
	out := []int{}
	for t := 1; t < n; t *= 2 {
		out = append(out, t)
	}
	out = append(out, n, 2*n)
	slices.Sort(out)
	return slices.Compact(out)
}

// RunScale regenerates the paper's Figure 4 scalability curve, measured end
// to end over both serving paths: for each dataset it builds the ACT-4m
// index, serializes it once, then loads it back through the copying reader
// ("heap") and through the zero-copy mapped reader ("mmap") and sweeps the
// thread counts over each. Every record carries the load path, the one-time
// load latency of that path, the machine's CPU count, and the speedup over
// the same path's single-thread row — so BENCH_scale.json holds the full
// thread-scaling curve and the mmap-vs-heap comparison in one artefact.
//
// The two paths must be more than comparable — they must be identical:
// RunScale cross-checks the pair counts of every (dataset, threads)
// measurement between heap and mmap and fails on any divergence, so the
// tracked artefact doubles as an end-to-end equivalence check.
//
// threads == nil selects ScaleThreads (1 → NumCPU → 2×NumCPU).
func RunScale(w io.Writer, cfg Config, threads []int) ([]Record, error) {
	cfg = cfg.withDefaults()
	if len(threads) == 0 {
		threads = ScaleThreads()
	}
	ncpu := runtime.NumCPU()
	section(w, fmt.Sprintf("Scale: ACT-4m thread scaling, heap vs mmap [M points/s] (NumCPU=%d)", ncpu))
	fmt.Fprintf(w, "%-14s %-6s %10s", "dataset", "load", "open [ms]")
	for _, th := range threads {
		fmt.Fprintf(w, " %7dT", th)
	}
	fmt.Fprintln(w)

	dir, err := os.MkdirTemp("", "act-scale")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	sets, err := Datasets(cfg)
	if err != nil {
		return nil, err
	}
	var records []Record
	for _, ds := range sets {
		built, err := act.New(ds.Set.Polygons, act.WithPrecision(4))
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, ds.Set.Name+".act")
		if err := writeIndex(built, path); err != nil {
			return nil, err
		}

		type mode struct {
			name string
			open func(string) (*act.Index, error)
		}
		modes := []mode{
			{"heap", readIndexFile},
			{"mmap", act.OpenIndex},
		}
		pairs := map[int]int64{} // threads → heap pair count, checked against mmap
		for _, m := range modes {
			start := time.Now()
			idx, err := m.open(path)
			if err != nil {
				return nil, fmt.Errorf("bench: scale %s %s load: %w", ds.Set.Name, m.name, err)
			}
			loadMillis := float64(time.Since(start).Microseconds()) / 1e3
			label := m.name
			if m.name == "mmap" && !idx.Status().Mapped {
				// Platform without mmap: the fallback copy path served the
				// open. Keep the row, but label it honestly.
				label = "mmap-fallback"
			}

			fmt.Fprintf(w, "%-14s %-6s %10.2f", ds.Set.Name, label, loadMillis)
			var base float64
			for _, th := range threads {
				st, err := MeasureIndexJoin(idx, ds.Points, act.Approximate, th, 2)
				if err != nil {
					return nil, err
				}
				if base == 0 {
					base = st.ThroughputMPts
				}
				scaleX := 1.0
				if base > 0 {
					scaleX = st.ThroughputMPts / base
				}
				r := record("scale", ds.Set.Name, 4, st)
				r.LoadMode = label
				r.LoadMillis = &loadMillis
				r.NumCPU = ncpu
				r.ScaleX = &scaleX
				records = append(records, r)
				fmt.Fprintf(w, " %8.1f", st.ThroughputMPts)

				if m.name == "heap" {
					pairs[th] = st.Pairs()
				} else if want, ok := pairs[th]; ok && st.Pairs() != want {
					return nil, fmt.Errorf(
						"bench: scale %s at %d threads: mmap produced %d pairs, heap produced %d",
						ds.Set.Name, th, st.Pairs(), want)
				}
			}
			fmt.Fprintln(w)
			if err := idx.Close(); err != nil {
				return nil, err
			}
		}
	}
	fmt.Fprintln(w, "\nPaper shape: near-linear scaling over physical cores and further gains")
	fmt.Fprintln(w, "from hyperthreads (memory-latency bound); the mmap rows match the heap")
	fmt.Fprintln(w, "rows pair-for-pair while opening orders of magnitude faster. On a")
	fmt.Fprintln(w, "single-core host the curve is necessarily flat.")
	return records, nil
}

// writeIndex serializes the index to path.
func writeIndex(idx *act.Index, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := idx.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readIndexFile loads an index through the copying deserializer — the
// "heap" load mode of the scale experiment.
func readIndexFile(path string) (*act.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return act.ReadIndex(f)
}
