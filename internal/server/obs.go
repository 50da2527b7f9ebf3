package server

import (
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/obs"
	"github.com/actindex/act/internal/replica"
)

// Metrics is the server's instrument set over one obs.Registry, rendered at
// GET /metrics. It is created independently of the Server (NewMetrics) so
// the process can wire WAL and compaction hooks into the index it builds
// *before* the HTTP layer exists — actserve builds the index first, and the
// WAL's fsync instrumentation must be attached at open time.
type Metrics struct {
	Registry *obs.Registry

	// HTTP layer.
	reqTotal    *obs.CounterVec   // act_http_requests_total{route,method,code}
	reqDuration *obs.HistogramVec // act_http_request_duration_seconds{route}
	respBytes   *obs.CounterVec   // act_http_response_bytes_total{route}
	inFlight    *obs.Gauge        // act_http_requests_in_flight
	rateLimited *obs.CounterVec   // act_http_rate_limited_total{route}

	// Join engine, fed by the /join handler from the engine's own stats.
	joinPoints  *obs.Counter   // act_join_points_total
	joinPairs   *obs.Counter   // act_join_pairs_total
	joinThreads *obs.Histogram // act_join_threads

	// WAL, fed by the act.Observer hooks.
	walAppends       *obs.Counter   // act_wal_appends_total
	walAppendErrors  *obs.Counter   // act_wal_append_errors_total
	walFsyncs        *obs.Counter   // act_wal_fsyncs_total
	walFsyncErrors   *obs.Counter   // act_wal_fsync_errors_total
	walFsyncDuration *obs.Histogram // act_wal_fsync_duration_seconds
	walRotations     *obs.Counter   // act_wal_rotations_total

	// Compactor, fed by the act.Observer hooks.
	compactions        *obs.Counter   // act_compactions_total
	compactionErrors   *obs.Counter   // act_compaction_errors_total
	compactionDuration *obs.Histogram // act_compaction_duration_seconds

	// Request-count cache: (route, method, code) → pre-resolved counter, so
	// the per-request path is a read-locked map hit, not a label-key join.
	reqMu    sync.RWMutex
	reqCache map[reqKey]*obs.Counter
}

type reqKey struct {
	route, method string
	code          int
}

// latencyBuckets spans 0.25ms–8s exponentially: tight enough to resolve a
// sub-millisecond lookup, wide enough to catch a compaction-stalled join.
var latencyBuckets = obs.ExpBuckets(0.00025, 2, 16)

// fsyncBuckets spans 50µs–1.6s: a healthy fsync is sub-millisecond, a
// stalling disk shows up in the long tail.
var fsyncBuckets = obs.ExpBuckets(0.00005, 2, 16)

// threadBuckets covers the join worker counts worth distinguishing.
var threadBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// NewMetrics registers the full actserve instrument set on a fresh
// registry.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	return &Metrics{
		Registry: r,

		reqTotal:    r.CounterVec("act_http_requests_total", "HTTP requests served, by route, method, and status code.", "route", "method", "code"),
		reqDuration: r.HistogramVec("act_http_request_duration_seconds", "HTTP request latency by route.", latencyBuckets, "route"),
		respBytes:   r.CounterVec("act_http_response_bytes_total", "HTTP response body bytes written, by route.", "route"),
		inFlight:    r.Gauge("act_http_requests_in_flight", "HTTP requests currently being served."),
		rateLimited: r.CounterVec("act_http_rate_limited_total", "Requests rejected with 429 by the mutation rate limit, by route.", "route"),

		joinPoints:  r.Counter("act_join_points_total", "Points probed by completed /join requests."),
		joinPairs:   r.Counter("act_join_pairs_total", "Join pairs emitted by completed /join requests."),
		joinThreads: r.Histogram("act_join_threads", "Worker threads used per completed /join request.", threadBuckets),

		walAppends:       r.Counter("act_wal_appends_total", "WAL record appends attempted (including failed ones)."),
		walAppendErrors:  r.Counter("act_wal_append_errors_total", "WAL record appends that failed."),
		walFsyncs:        r.Counter("act_wal_fsyncs_total", "WAL fsyncs attempted (including failed ones)."),
		walFsyncErrors:   r.Counter("act_wal_fsync_errors_total", "WAL fsyncs that failed."),
		walFsyncDuration: r.Histogram("act_wal_fsync_duration_seconds", "WAL fsync latency.", fsyncBuckets),
		walRotations:     r.Counter("act_wal_rotations_total", "WAL checkpoint rotations completed."),

		compactions:        r.Counter("act_compactions_total", "Delta-into-base compactions completed (including failed ones)."),
		compactionErrors:   r.Counter("act_compaction_errors_total", "Compactions that failed."),
		compactionDuration: r.Histogram("act_compaction_duration_seconds", "Compaction duration.", latencyBuckets),

		reqCache: make(map[reqKey]*obs.Counter),
	}
}

// ActObserver returns the index-side hook set feeding m (and logger, which
// may be nil for metrics-only observation). Pass it to act.New/act.Recover
// via act.WithObserver so WAL and compaction events land in /metrics.
func (m *Metrics) ActObserver(logger *slog.Logger) *act.Observer {
	return &act.Observer{
		Logger: logger,
		OnWALAppend: func(err error) {
			m.walAppends.Inc()
			if err != nil {
				m.walAppendErrors.Inc()
			}
		},
		OnWALFsync: func(d time.Duration, err error) {
			m.walFsyncs.Inc()
			if err != nil {
				m.walFsyncErrors.Inc()
				return
			}
			m.walFsyncDuration.Observe(d.Seconds())
		},
		OnWALRotate: func(err error) {
			if err == nil {
				m.walRotations.Inc()
			}
		},
		OnCompaction: func(d time.Duration, err error) {
			m.compactions.Inc()
			if err != nil {
				m.compactionErrors.Inc()
				return
			}
			m.compactionDuration.Observe(d.Seconds())
		},
	}
}

// requestCounter resolves act_http_requests_total{route,method,code} through
// a read-mostly cache. A method outside the standard set the server answers
// is labeled "other", so a client cannot mint series, or cache entries, by
// sending made-up methods.
func (m *Metrics) requestCounter(route, method string, code int) *obs.Counter {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut,
		http.MethodPatch, http.MethodDelete, http.MethodOptions:
	default:
		method = "other"
	}
	k := reqKey{route, method, code}
	m.reqMu.RLock()
	c := m.reqCache[k]
	m.reqMu.RUnlock()
	if c != nil {
		return c
	}
	c = m.reqTotal.With(route, method, strconv.Itoa(code))
	m.reqMu.Lock()
	m.reqCache[k] = c
	m.reqMu.Unlock()
	return c
}

// registerIndexGauges exposes the live index's own state — the serving
// trie's shape, mutation layer, WAL position and failed-state — as
// scrape-time callbacks against the swappable holder, so the values track
// /reload swaps, compactions and promotions without any per-event
// bookkeeping. Each gauge renders one field of the index's Status, the
// value /stats renders too.
func (m *Metrics) registerIndexGauges(indexes *act.Swappable) {
	for _, g := range []struct {
		name, help string
		field      func(act.Status) float64
	}{
		{"act_index_cells", "Cells in the serving trie's merged super covering.",
			func(st act.Status) float64 { return float64(st.Build.IndexedCells) }},
		{"act_index_achieved_precision_meters", "Worst-case false-positive distance the serving trie delivers (an upper bound after a compaction).",
			func(st act.Status) float64 { return st.Build.AchievedPrecisionMeters }},
		{"act_index_trie_bytes", "Bytes of the serving trie's node arena.",
			func(st act.Status) float64 { return float64(st.Build.TrieBytes) }},
		{"act_index_table_bytes", "Bytes of the serving trie's lookup table.",
			func(st act.Status) float64 { return float64(st.Build.TableBytes) }},
		{"act_index_trie_nodes", "Nodes a walk of the serving trie reaches (a shared leaf once per parent slot).",
			func(st act.Status) float64 { return float64(st.Build.TrieNodes) }},
		{"act_index_mapped", "1 while the serving trie is read from a memory-mapped file, else 0.",
			func(st act.Status) float64 { return oneIf(st.Mapped) }},
		{"act_index_live_polygons", "Live polygons in the serving index (base + delta - tombstones).",
			func(st act.Status) float64 { return float64(st.Live) }},
		{"act_index_delta_polygons", "Polygons inserted since the base trie was built, removed ones included.",
			func(st act.Status) float64 { return float64(st.DeltaPolygons) }},
		{"act_index_tombstones", "Polygon removals since the base trie was built, pending compaction.",
			func(st act.Status) float64 { return float64(st.Tombstones) }},
		{"act_wal_seq", "Sequence number of the last logged mutation (0 with no WAL).",
			func(st act.Status) float64 { return float64(st.WAL.Seq) }},
		{"act_wal_bytes", "Current WAL file length in bytes.",
			func(st act.Status) float64 { return float64(st.WAL.Bytes) }},
		{"act_wal_failed", "1 when the WAL has tripped fail-stop (index is read-only), else 0.",
			func(st act.Status) float64 { return oneIf(st.WAL.Failed != "") }},
		{"act_wal_epoch", "Replication fencing epoch in the WAL header.",
			func(st act.Status) float64 { return float64(st.WAL.Epoch) }},
	} {
		m.Registry.GaugeFunc(g.name, g.help, func() float64 { return g.field(indexes.Load().Status()) })
	}
	m.Registry.GaugeFunc("act_index_generation", "Index swap generation (1 = startup index; each /reload increments).", func() float64 {
		_, gen := indexes.LoadGeneration()
		return float64(gen)
	})
}

// oneIf renders a boolean gauge.
func oneIf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// registerFollowerGauges exposes the replication client's stream position.
// Called by EnableFollower, so the families exist only on followers (and on
// promoted ex-followers, where the final values freeze).
func (m *Metrics) registerFollowerGauges(f *replica.Follower) {
	r := m.Registry
	r.GaugeFunc("act_replication_connected", "1 while the follower's record stream is open, else 0.", func() float64 {
		return oneIf(f.Status().Connected)
	})
	r.GaugeFunc("act_replication_applied_seq", "Last primary sequence applied to the serving index.", func() float64 {
		return float64(f.Status().AppliedSeq)
	})
	r.GaugeFunc("act_replication_primary_seq", "Newest sequence the primary has announced.", func() float64 {
		return float64(f.Status().PrimarySeq)
	})
	r.GaugeFunc("act_replication_lag", "Records between the primary's head and this follower (0 = caught up).", func() float64 {
		return float64(f.Status().Lag())
	})
	r.CounterFunc("act_replication_reconnects_total", "Stream reconnections.", func() float64 {
		return float64(f.Status().Reconnects)
	})
	r.CounterFunc("act_replication_bootstraps_total", "Snapshot bootstraps (1 is the initial one).", func() float64 {
		return float64(f.Status().Bootstraps)
	})
}

// statusRecorder captures what the handler wrote — status, body bytes — and
// carries the matched route name plus the route's pre-resolved instrument
// handles back to ServeHTTP's single observation point.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int64
	route string
	// dur and respBytes are installed by the route wrapper at match time:
	// handles resolved once at registration, so the hot path never builds a
	// label key.
	dur       *obs.Histogram
	respBytes *obs.Counter
}

func (rec *statusRecorder) WriteHeader(code int) {
	if rec.code == 0 {
		rec.code = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *statusRecorder) Write(p []byte) (int, error) {
	if rec.code == 0 {
		rec.code = http.StatusOK
	}
	n, err := rec.ResponseWriter.Write(p)
	rec.bytes += int64(n)
	return n, err
}

// Flush forwards streaming flushes (the NDJSON /join path) to the
// underlying writer.
func (rec *statusRecorder) Flush() {
	if f, ok := rec.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (rec *statusRecorder) status() int {
	if rec.code == 0 {
		return http.StatusOK
	}
	return rec.code
}

// tokenBucket is the mutation rate limiter: rate tokens/second with a burst
// of max(rate, 1), refilled continuously.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rps float64) *tokenBucket {
	burst := rps
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rps, burst: burst, tokens: burst}
}

// take consumes one token if available; otherwise it reports how long until
// one accrues (the Retry-After value).
func (b *tokenBucket) take(now time.Time) (ok bool, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / b.rate
	return false, time.Duration(need * float64(time.Second))
}
