package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns the first, second and third quartile of vs by the
// method of Python's statistics.quantiles(vs, n=4) (exclusive), the one the
// acceptance rule of this benchmark is written in.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

// runInChild runs one seed in a process of its own, as the driver does: a
// run must not inherit the previous run's heap, whose collection would
// compete with the phases being timed. It returns the result line and every
// metric the run measured.
func runInChild(o options, seed int64) (*result, map[string]measured, error) {
	cmd := exec.Command(os.Args[0],
		"-root", o.root, "-workload", o.workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace))
	if o.toy {
		cmd.Args = append(cmd.Args, "-toy")
	}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte{'\n'})
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("output of %d lines", len(lines))
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, nil, fmt.Errorf("last line of output: %w", err)
	}
	var all map[string]measured
	rest, ok := bytes.CutPrefix(lines[len(lines)-2], []byte(allMetricsPrefix))
	if !ok {
		return nil, nil, fmt.Errorf("no %q line before the result", allMetricsPrefix)
	}
	if err := json.Unmarshal(rest, &all); err != nil {
		return nil, nil, fmt.Errorf("%sline: %w", allMetricsPrefix, err)
	}
	return &res, all, nil
}

// repeat runs the workload o.repeat times, each with another seed, and
// prints per metric the median, the quartiles, and their distance as a
// share of the median — the spread the bounds in BENCHMARK.json are judged
// against. The gated metrics come first, with their bounds; then whatever
// else the runs measured. STABILITY.md is made of two such tables per
// workload.
func repeat(o options, w *workload, out io.Writer) error {
	if o.repeat < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs")
	}
	sp, err := loadSpec(o.root)
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	var attempted, failed int64
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + int64(i)
		res, all, err := runInChild(o, seed)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed, err)
		}
		attempted += res.Attempted
		failed += res.Failed
		for name, m := range all {
			values[name] = append(values[name], m.Value)
		}
		fmt.Fprintf(out, "run %d/%d seed %d: attempted %d failed %d\n", i+1, o.repeat, seed, res.Attempted, res.Failed)
	}
	fmt.Fprintf(out, "\n| %s, %d runs, seeds %d..%d | median | q1 | q3 | spread | bound |\n|---|---|---|---|---|---|\n",
		w.name, o.repeat, o.seed, o.seed+int64(o.repeat)-1)
	row := func(m metric, bound string) {
		vs := values[m.Name]
		if len(vs) != o.repeat {
			return // not in this workload's row
		}
		q1, q2, q3 := quartiles(vs)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Fprintf(out, "| `%s` (%s) | %.6g | %.6g | %.6g | %.2f %% | %s |\n", m.Name, m.Unit, q2, q1, q3, 100*spread, bound)
	}
	for _, m := range sp.EndToEnd {
		row(m, fmt.Sprintf("%.0f %%", 100*m.Bound))
	}
	for _, m := range sp.PerLayer {
		row(m, "—")
	}
	fmt.Fprintf(out, "\nops_attempted %d\nops_failed %d\n", attempted, failed)
	return nil
}
