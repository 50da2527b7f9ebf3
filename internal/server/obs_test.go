package server

// End-to-end observability: /metrics moves with real traffic, the WAL
// fail-stop shows up as a gauge and a 503 counter, request ids are
// honored/generated/echoed, and the mutation rate limit answers 429 with
// Retry-After and a rejection counter.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/fault"
)

// metricValue scrapes /metrics and returns the value of the sample whose
// line starts with prefix (metric name, or name{labels...}).
func metricValue(t *testing.T, s *Server, prefix string) float64 {
	t.Helper()
	v, ok := scrapeMetric(t, s, prefix)
	if !ok {
		t.Fatalf("no sample with prefix %q in /metrics output", prefix)
	}
	return v
}

// scrapeMetric is metricValue without the must-exist check: labeled series
// are minted on first use, so a pre-traffic scrape legitimately lacks them.
func scrapeMetric(t *testing.T, s *Server, prefix string) (float64, bool) {
	t.Helper()
	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		// Exact name match only: "act_wal_appends" must not match
		// "act_wal_appends_total"'s prefix and so on.
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parsing sample %q: %v", line, err)
		}
		return v, true
	}
	return 0, false
}

// TestMetricsMoveWithTraffic: the HTTP and join counters advance after a
// /join request, and the index gauges reflect the live index.
func TestMetricsMoveWithTraffic(t *testing.T) {
	s, _ := testServer(t)

	before, _ := scrapeMetric(t, s, `act_http_requests_total{route="join",method="POST",code="200"}`)
	body := `{"points":[{"lat":40.73,"lng":-73.99},{"lat":41.5,"lng":-73.99},{"lat":40.71,"lng":-74.0}]}`
	if rec := postJoin(t, s, body); rec.Code != http.StatusOK {
		t.Fatalf("join status %d: %s", rec.Code, rec.Body)
	}

	if got := metricValue(t, s, `act_http_requests_total{route="join",method="POST",code="200"}`); got != before+1 {
		t.Errorf("join request counter = %v, want %v", got, before+1)
	}
	if got := metricValue(t, s, "act_join_points_total"); got < 3 {
		t.Errorf("act_join_points_total = %v, want >= 3", got)
	}
	if got := metricValue(t, s, `act_http_request_duration_seconds_count{route="join"}`); got < 1 {
		t.Errorf("join duration histogram count = %v, want >= 1", got)
	}
	if got := metricValue(t, s, `act_http_response_bytes_total{route="join"}`); got <= 0 {
		t.Errorf("join response bytes = %v, want > 0", got)
	}
	if got := metricValue(t, s, "act_index_live_polygons"); got != 1 {
		t.Errorf("act_index_live_polygons = %v, want 1", got)
	}
	// The scrape observes itself mid-flight: exactly one request (the
	// /metrics GET) is in progress at render time.
	if got := metricValue(t, s, "act_http_requests_in_flight"); got != 1 {
		t.Errorf("in-flight gauge during scrape = %v, want 1", got)
	}
}

// TestMetricsWALFailure: a fail-stopped WAL surfaces as act_wal_failed=1,
// fsync error counters, and a 503 in the request counter — the full
// degradation story an operator's dashboard needs.
func TestMetricsWALFailure(t *testing.T) {
	zone := &act.Polygon{Outer: []act.LatLng{
		{Lat: 40.70, Lng: -74.02}, {Lat: 40.70, Lng: -73.96},
		{Lat: 40.76, Lng: -73.96}, {Lat: 40.76, Lng: -74.02},
	}}
	metrics := NewMetrics()
	// Sync 1 is the header fsync of the fresh log; the first insert's fsync
	// (and every one after) hits the dead disk.
	sched := fault.NewSchedule().FailFrom(fault.OpSync, 2, syscall.EIO)
	walPath := filepath.Join(t.TempDir(), "serve.wal")
	idx, err := act.New([]*act.Polygon{zone},
		act.WithPrecision(10), act.WithDeltaThreshold(-1),
		act.WithObserver(metrics.ActObserver(nil)),
		act.WithWAL(act.WALConfig{Path: walPath, FS: fault.FS{S: sched}}))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	s := NewServer(act.NewSwappable(idx), BuildDefaults{Precision: 10}, metrics)

	if got := metricValue(t, s, "act_wal_failed"); got != 0 {
		t.Fatalf("act_wal_failed on healthy index = %v, want 0", got)
	}
	// The build's header fsync was observed through the WAL hooks.
	if got := metricValue(t, s, "act_wal_fsyncs_total"); got < 1 {
		t.Errorf("act_wal_fsyncs_total = %v, want >= 1", got)
	}

	if rec := do(t, s, http.MethodPost, "/polygons", churnGeoJSON(0)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("insert on dead disk: status %d, want 503: %s", rec.Code, rec.Body)
	}

	if got := metricValue(t, s, "act_wal_failed"); got != 1 {
		t.Errorf("act_wal_failed after fail-stop = %v, want 1", got)
	}
	if got := metricValue(t, s, "act_wal_fsync_errors_total"); got < 1 {
		t.Errorf("act_wal_fsync_errors_total = %v, want >= 1", got)
	}
	if got := metricValue(t, s, "act_wal_append_errors_total"); got < 1 {
		t.Errorf("act_wal_append_errors_total = %v, want >= 1", got)
	}
	if got := metricValue(t, s, `act_http_requests_total{route="insert",method="POST",code="503"}`); got != 1 {
		t.Errorf("503 insert counter = %v, want 1", got)
	}
}

// TestRequestID: generated when absent, honored when present, echoed on
// every response including errors.
func TestRequestID(t *testing.T) {
	s, _ := testServer(t)

	rec := get(t, s, "/lookup?lat=40.73&lng=-73.99")
	generated := rec.Header().Get("X-Request-ID")
	if generated == "" {
		t.Fatal("no X-Request-ID generated on a bare request")
	}
	rec2 := get(t, s, "/lookup?lat=40.73&lng=-73.99")
	if rec2.Header().Get("X-Request-ID") == generated {
		t.Error("request ids are not unique across requests")
	}

	req := httptest.NewRequest(http.MethodGet, "/lookup?lat=40.73&lng=-73.99", nil)
	req.Header.Set("X-Request-ID", "caller-supplied-42")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if got := w.Header().Get("X-Request-ID"); got != "caller-supplied-42" {
		t.Errorf("inbound request id not honored: got %q", got)
	}

	// Echoed on error responses too.
	if rec := get(t, s, "/lookup?lat=abc&lng=1"); rec.Code != http.StatusBadRequest ||
		rec.Header().Get("X-Request-ID") == "" {
		t.Errorf("4xx response: status %d, request id %q", rec.Code, rec.Header().Get("X-Request-ID"))
	}
}

// TestMutationRateLimit: with -mutation-rps 1, the second immediate insert
// is answered 429 with a Retry-After hint and counted in /metrics; reads
// are never limited.
func TestMutationRateLimit(t *testing.T) {
	s, _ := mutationServer(t, -1)
	s.EnableMutationLimit(1)

	if rec := do(t, s, http.MethodPost, "/polygons", churnGeoJSON(0)); rec.Code != http.StatusOK {
		t.Fatalf("first insert: status %d: %s", rec.Code, rec.Body)
	}
	rec := do(t, s, http.MethodPost, "/polygons", churnGeoJSON(1))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second insert: status %d, want 429: %s", rec.Code, rec.Body)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", rec.Header().Get("Retry-After"))
	}
	if got := metricValue(t, s, `act_http_rate_limited_total{route="insert"}`); got != 1 {
		t.Errorf("rate-limited counter = %v, want 1", got)
	}
	// Deletes share the bucket.
	if rec := do(t, s, http.MethodDelete, "/polygons/0", ""); rec.Code != http.StatusTooManyRequests {
		t.Errorf("remove while limited: status %d, want 429", rec.Code)
	}
	// Reads are untouched by the limiter.
	if rec := get(t, s, "/lookup?lat=40.73&lng=-73.99"); rec.Code != http.StatusOK {
		t.Errorf("lookup while limited: status %d, want 200", rec.Code)
	}
}

// TestMetricsUnknownRoute: unmatched paths land in the "other" bucket
// rather than minting a per-path label (cardinality stays bounded).
func TestMetricsUnknownRoute(t *testing.T) {
	s, _ := testServer(t)
	if rec := get(t, s, "/no-such-endpoint"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path status %d, want 404", rec.Code)
	}
	if got := metricValue(t, s, `act_http_requests_total{route="other",method="GET",code="404"}`); got != 1 {
		t.Errorf("other-route counter = %v, want 1", got)
	}
	// Methods are client-chosen too: made-up ones share one "other" label.
	series := func() int {
		return strings.Count(get(t, s, "/metrics").Body.String(), "\nact_http_requests_total{")
	}
	before := series()
	for i := 0; i < 500; i++ {
		do(t, s, "M"+strconv.Itoa(i), "/no-such-endpoint", "")
	}
	if added := series() - before; added > 1 {
		t.Errorf("500 distinct unknown methods added %d act_http_requests_total series, want at most 1", added)
	}
	if got := metricValue(t, s, `act_http_requests_total{route="other",method="other",code="404"}`); got != 500 {
		t.Errorf("other-method counter = %v, want 500", got)
	}
}

// TestIndexShapeGauges: every index gauge renders the same Status field
// /stats renders, so on a quiescent index each gauge equals its /stats
// field — on a recovered primary serving its snapshot's mapped trie, with
// mutations pending, and after a compaction has replaced the trie.
func TestIndexShapeGauges(t *testing.T) {
	_, built := mutationServer(t, -1)
	idx, err := act.Recover(writeIndexFile(t, built), filepath.Join(t.TempDir(), "delta.wal"), act.WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	s := NewServer(act.NewSwappable(idx), BuildDefaults{Precision: 10})
	oneIf := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	check := func(when string) statsResponse {
		t.Helper()
		var st statsResponse
		if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		for name, want := range map[string]float64{
			"act_index_cells":                     float64(st.IndexedCells),
			"act_index_achieved_precision_meters": st.AchievedPrecisionMeters,
			"act_index_trie_bytes":                float64(st.TrieBytes),
			"act_index_table_bytes":               float64(st.TableBytes),
			"act_index_trie_nodes":                float64(st.TrieNodes),
			"act_index_mapped":                    oneIf(st.Mapped),
			"act_index_live_polygons":             float64(st.LivePolygons),
			"act_index_delta_polygons":            float64(st.DeltaPolygons),
			"act_index_tombstones":                float64(st.Tombstones),
			"act_index_generation":                float64(st.Generation),
			"act_wal_seq":                         float64(st.WALSeq),
			"act_wal_bytes":                       float64(st.WALBytes),
			"act_wal_failed":                      oneIf(st.WALFailed != ""),
			"act_wal_epoch":                       float64(st.WALEpoch),
		} {
			if got := metricValue(t, s, name); got != want {
				t.Errorf("%s: %s = %v, /stats says %v", when, name, got, want)
			}
		}
		if st.IndexedCells == 0 || st.TrieBytes == 0 || st.TrieNodes == 0 || st.AchievedPrecisionMeters == 0 {
			t.Errorf("%s: /stats reports an empty trie: %+v", when, st)
		}
		return st
	}
	before := check("recovered")
	if rec := do(t, s, http.MethodPost, "/polygons", churnGeoJSON(0)); rec.Code != http.StatusOK {
		t.Fatalf("insert status %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodDelete, "/polygons/1", ""); rec.Code != http.StatusOK {
		t.Fatalf("remove status %d: %s", rec.Code, rec.Body)
	}
	if st := check("with mutations pending"); st.DeltaPolygons != 1 || st.Tombstones != 1 || st.WALSeq != 2 {
		t.Errorf("pending mutations not reported: %+v", st)
	}
	if err := idx.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := check("after compaction")
	if after.TrieNodes == before.TrieNodes || after.Compactions != 1 || after.Mapped || after.LivePolygons != 2 {
		t.Errorf("compaction left %d trie nodes (from %d), %d compactions, mapped %v, %d live polygons; want a new heap trie of 2 polygons after one",
			after.TrieNodes, before.TrieNodes, after.Compactions, after.Mapped, after.LivePolygons)
	}
}
