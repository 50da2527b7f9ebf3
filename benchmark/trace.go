package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// rung is one layer of the ladder: the same points pushed through
// successively thicker slices of the system, each timed from outside. A
// rung's self time is its own time minus its children's — the part of the
// thicker slice that the thinner ones do not explain. The slices are timed
// one after another, so a thin rung can come out slower than the thick one
// it is part of; the negative self time that gives is kept, not hidden.
type rung struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Unit   string  `json:"unit"`
	Time   float64 `json:"time"`
	Self   float64 `json:"self"`
	Share  float64 `json:"share_of_root"`
}

// tracer keeps spans in memory and writes them out once, at the end. A nil
// tracer records nothing, which is how untraced runs are spelled.
type tracer struct {
	t0     time.Time
	spans  []span
	stack  []int
	ladder []rung
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("trace: span %d closed out of order", id))
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// leaf records an already-timed call (one request of a load phase) under
// the innermost open span.
func (t *tracer) leaf(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: s, End: s + int64(d)})
}

// addLadder appends one ladder: rungs[0] is the root, every other rung
// names its parent. Self times and shares are filled in here.
func (t *tracer) addLadder(rungs []rung) {
	if t == nil {
		return
	}
	children := map[string]float64{}
	for _, r := range rungs {
		children[r.Parent] += r.Time
	}
	root := rungs[0].Time
	for i := range rungs {
		r := &rungs[i]
		r.Self = r.Time - children[r.Name]
		if root > 0 {
			r.Share = r.Self / root
		}
	}
	t.ladder = append(t.ladder, rungs...)
}

// printLadder writes the per-layer table of a traced run.
func (t *tracer) printLadder(w io.Writer) {
	if t == nil || len(t.ladder) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-34s %-26s %12s %12s %8s\n", "layer", "inside", "time", "self", "share")
	for _, r := range t.ladder {
		fmt.Fprintf(w, "%-34s %-26s %9.2f %-2s %9.2f %-2s %7.1f%%\n", r.Name, r.Parent, r.Time, r.Unit, r.Self, r.Unit, 100*r.Share)
	}
}

// write stores the trace as JSON at path.
func (t *tracer) write(path string, env [][2]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	envMap := map[string]string{}
	for _, kv := range env {
		envMap[kv[0]] = kv[1]
	}
	b, err := json.Marshal(struct {
		Env    map[string]string `json:"env"`
		Ladder []rung            `json:"ladder"`
		Spans  []span            `json:"spans"`
	}{envMap, t.ladder, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
