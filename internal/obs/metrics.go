// Package obs is the zero-dependency observability layer behind actserve:
// a metrics registry (counters, gauges, histograms) rendered in the
// Prometheus text exposition format, plus the request-id plumbing the
// structured request logs hang off.
//
// The design trades generality for a free hot path. Instruments are plain
// structs over atomics — Counter.Inc is one atomic add, Histogram.Observe
// is a short linear scan plus two atomic adds, neither allocates — and
// labeled families hand out pre-resolved instrument handles (Vec.With) so
// the per-request path never touches a map. Rendering walks the registry
// under its lock and is the only place that formats anything; a scrape
// costs the scraper, not the request path.
//
// Metric and label names are not validated beyond what the renderer needs;
// callers follow the Prometheus conventions (snake_case, _total for
// counters, _seconds for durations) by discipline, pinned by the golden
// exposition test.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. The zero value is unusable;
// obtain counters from a Registry so they render.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by delta (CAS loop; contended adds retry).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds (inclusive, Prometheus "le" semantics) in ascending order, with an
// implicit +Inf bucket at the end. Observe is goroutine-safe and
// allocation-free: a linear scan over the (small) bound slice, then atomic
// adds into the bucket, count, and sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ExpBuckets returns n exponential bucket bounds: start, start*factor,
// start*factor², … — the standard shape for latency histograms, where the
// interesting resolution is relative, not absolute.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: bad exponential buckets (start %v, factor %v, n %d)", start, factor, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// series is one labeled instrument within a family.
type series struct {
	labels []string // values, aligned with the family's label keys
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // value callback (gauge/counter "func" series)
}

// family is one named metric with all its label permutations.
type family struct {
	name, help, kind string // kind: "counter" | "gauge" | "histogram"
	keys             []string
	bounds           []float64 // histogram families share bucket bounds

	mu     sync.Mutex
	series []*series
	byKey  map[string]*series
}

func (f *family) get(values []string) *series {
	if len(values) != len(f.keys) {
		panic(fmt.Sprintf("obs: metric %s has %d labels, got %d values", f.name, len(f.keys), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{labels: append([]string(nil), values...)}
	switch f.kind {
	case "counter":
		s.c = &Counter{}
	case "gauge":
		s.g = &Gauge{}
	case "histogram":
		s.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	}
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// Registry holds the registered metric families and renders them. The zero
// value is not usable; use NewRegistry.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	names map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// register adds a family, panicking on a duplicate name — two subsystems
// claiming one metric is a programming error worth failing loudly on.
func (r *Registry) register(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[f.name] {
		panic("obs: duplicate metric " + f.name)
	}
	r.names[f.name] = true
	f.byKey = make(map[string]*series)
	r.fams = append(r.fams, f)
	return f
}

// Counter registers (and returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(&family{name: name, help: help, kind: "counter"})
	return f.get(nil).c
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(&family{name: name, help: help, kind: "gauge"})
	return f.get(nil).g
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time —
// the cheap way to expose state another subsystem already tracks (WAL
// sequence numbers, replication lag) without double accounting.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(&family{name: name, help: help, kind: "gauge"})
	s := f.get(nil)
	s.fn = fn
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. The callback must be monotone (it renders with counter semantics);
// use it for counts another layer already maintains.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(&family{name: name, help: help, kind: "counter"})
	s := f.get(nil)
	s.fn = fn
}

// Histogram registers an unlabeled histogram over the given bucket bounds.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(&family{name: name, help: help, kind: "histogram", bounds: checkBounds(buckets)})
	return f.get(nil).h
}

// CounterVec is a counter family with labels; resolve a handle once with
// With and increment it for free thereafter.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	return &CounterVec{r.register(&family{name: name, help: help, kind: "counter", keys: labelKeys})}
}

// With returns the counter for the given label values, creating it on first
// use. Callers on hot paths resolve once and keep the handle.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).c }

// HistogramVec is a histogram family with labels; every series shares the
// family's bucket bounds.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelKeys ...string) *HistogramVec {
	return &HistogramVec{r.register(&family{
		name: name, help: help, kind: "histogram",
		bounds: checkBounds(buckets), keys: labelKeys,
	})}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).h }

func checkBounds(b []float64) []float64 {
	if len(b) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("obs: histogram bucket bounds must be strictly ascending")
		}
	}
	return append([]float64(nil), b...)
}

// ContentType is the exposition format version Render emits.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// ServeHTTP renders the registry — the GET /metrics endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ContentType)
	_ = r.Render(w)
}

// Render writes every registered family in the Prometheus text exposition
// format: families in registration order, series within a family sorted by
// label values so the output is deterministic.
func (r *Registry) Render(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		series := append([]*series(nil), f.series...)
		f.mu.Unlock()
		if len(series) == 0 {
			continue
		}
		sort.Slice(series, func(i, j int) bool {
			return strings.Join(series[i].labels, "\x00") < strings.Join(series[j].labels, "\x00")
		})
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range series {
			switch {
			case s.fn != nil:
				writeSample(&b, f.name, f.keys, s.labels, "", "", s.fn())
			case s.c != nil:
				writeSample(&b, f.name, f.keys, s.labels, "", "", float64(s.c.Value()))
			case s.g != nil:
				writeSample(&b, f.name, f.keys, s.labels, "", "", s.g.Value())
			case s.h != nil:
				// Cumulative buckets: each le bound counts everything at or
				// below it, per the exposition format.
				var cum uint64
				for i, bound := range s.h.bounds {
					cum += s.h.counts[i].Load()
					writeSample(&b, f.name+"_bucket", f.keys, s.labels, "le", formatFloat(bound), float64(cum))
				}
				cum += s.h.counts[len(s.h.bounds)].Load()
				writeSample(&b, f.name+"_bucket", f.keys, s.labels, "le", "+Inf", float64(cum))
				writeSample(&b, f.name+"_sum", f.keys, s.labels, "", "", s.h.Sum())
				writeSample(&b, f.name+"_count", f.keys, s.labels, "", "", float64(s.h.Count()))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSample emits one exposition line, appending an extra label (the
// histogram "le") when extraKey is non-empty.
func writeSample(b *strings.Builder, name string, keys, values []string, extraKey, extraVal string, v float64) {
	b.WriteString(name)
	if len(keys) > 0 || extraKey != "" {
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(k)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(values[i]))
			b.WriteByte('"')
		}
		if extraKey != "" {
			if len(keys) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(extraKey)
			b.WriteString(`="`)
			b.WriteString(extraVal)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// formatFloat renders a sample value: integers without an exponent or
// trailing zeros (the common case for counters), everything else in Go's
// shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}
