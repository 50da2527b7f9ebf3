package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/replica"
)

func testServer(t *testing.T) (*Server, *act.Index) {
	t.Helper()
	zone := &act.Polygon{Outer: []act.LatLng{
		{Lat: 40.70, Lng: -74.02},
		{Lat: 40.70, Lng: -73.96},
		{Lat: 40.76, Lng: -73.96},
		{Lat: 40.76, Lng: -74.02},
	}}
	idx, err := act.New([]*act.Polygon{zone}, act.WithPrecision(10))
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(act.NewSwappable(idx), BuildDefaults{Precision: 10}), idx
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestLookupHit(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, "/lookup?lat=40.73&lng=-73.99")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp lookupResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Matched || len(resp.True) != 1 || resp.True[0] != 0 {
		t.Errorf("resp = %+v", resp)
	}
	if resp.Epsilon != 10 {
		t.Errorf("epsilon = %v", resp.Epsilon)
	}
}

func TestLookupMiss(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, "/lookup?lat=41.5&lng=-73.99")
	var resp lookupResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Matched || len(resp.True) != 0 || len(resp.Candidates) != 0 {
		t.Errorf("resp = %+v", resp)
	}
}

func TestLookupExactParam(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, "/lookup?lat=40.73&lng=-73.99&exact=1")
	var resp lookupResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Exact || !resp.Matched || len(resp.Candidates) != 0 {
		t.Errorf("resp = %+v", resp)
	}
}

func TestLookupValidation(t *testing.T) {
	s, _ := testServer(t)
	for _, path := range []string{
		"/lookup",
		"/lookup?lat=abc&lng=1",
		"/lookup?lat=1",
		"/lookup?lat=95&lng=0",
		"/lookup?lat=0&lng=181",
	} {
		if rec := get(t, s, path); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, rec.Code)
		}
	}
}

func TestStatsAndHealth(t *testing.T) {
	s, idx := testServer(t)
	rec := get(t, s, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var resp statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.NumPolygons != 1 || resp.Grid != "planar" ||
		resp.IndexedCells != idx.Status().Build.IndexedCells {
		t.Errorf("stats = %+v", resp)
	}
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("health status %d", rec.Code)
	}
}

func postJoin(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/join", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestJoinBatch(t *testing.T) {
	s, _ := testServer(t)
	// Two points inside the zone, one far outside.
	body := `{"points":[{"lat":40.73,"lng":-73.99},{"lat":41.5,"lng":-73.99},{"lat":40.71,"lng":-74.0}],"exact":true,"threads":2}`
	rec := postJoin(t, s, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 3 { // 2 pairs + trailer
		t.Fatalf("got %d NDJSON lines: %q", len(lines), rec.Body.String())
	}
	gotPoints := map[int]bool{}
	for _, line := range lines[:len(lines)-1] {
		var p joinPair
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("bad pair line %q: %v", line, err)
		}
		if p.Polygon != 0 || (p.Class != "true" && p.Class != "candidate") {
			t.Errorf("pair = %+v", p)
		}
		gotPoints[p.Point] = true
	}
	if !gotPoints[0] || !gotPoints[2] || gotPoints[1] {
		t.Errorf("matched points %v, want {0, 2}", gotPoints)
	}
	var tr joinTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatalf("bad trailer %q: %v", lines[len(lines)-1], err)
	}
	if tr.Stats.Points != 3 || tr.Stats.Pairs != 2 || tr.Stats.Misses != 1 {
		t.Errorf("trailer stats = %+v", tr.Stats)
	}
}

// TestJoinExactQueryParam drives the exact switch through ?exact=1 instead
// of the body field: every emitted pair must be truly inside, and the
// point on the zone edge must survive refinement (boundary counts inside).
func TestJoinExactQueryParam(t *testing.T) {
	s, _ := testServer(t)
	// One point deep inside, one outside but within a boundary cell's
	// reach is not constructible reliably here — instead use a point
	// exactly on the zone's edge, which approximate mode reports as a
	// candidate and exact mode must keep (closed-polygon convention).
	body := `{"points":[{"lat":40.73,"lng":-73.99},{"lat":40.70,"lng":-73.99}]}`
	req := httptest.NewRequest(http.MethodPost, "/join?exact=1", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 3 { // 2 pairs + trailer
		t.Fatalf("got %d NDJSON lines: %q", len(lines), rec.Body.String())
	}
	var tr joinTrailer
	if err := json.Unmarshal([]byte(lines[2]), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Stats.Pairs != 2 || tr.Stats.Misses != 0 {
		t.Errorf("trailer stats = %+v", tr.Stats)
	}
}

// TestExactRejectedWithoutGeometry swaps in an approximate-only index:
// exact lookups and joins must fail loudly with 422, approximate ones keep
// serving, and /stats reports hasGeometry=false.
func TestExactRejectedWithoutGeometry(t *testing.T) {
	s, _ := testServer(t)
	zone := &act.Polygon{Outer: []act.LatLng{
		{Lat: 40.70, Lng: -74.02},
		{Lat: 40.70, Lng: -73.96},
		{Lat: 40.76, Lng: -73.96},
	}}
	noGeo, err := act.New([]*act.Polygon{zone}, act.WithPrecision(10), act.WithGeometryStore(false))
	if err != nil {
		t.Fatal(err)
	}
	s.indexes.Swap(noGeo)
	if rec := get(t, s, "/lookup?lat=40.73&lng=-73.99&exact=1"); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("exact lookup status %d, want 422", rec.Code)
	}
	if rec := get(t, s, "/lookup?lat=40.72&lng=-73.98"); rec.Code != http.StatusOK {
		t.Errorf("approximate lookup status %d, want 200", rec.Code)
	}
	if rec := postJoin(t, s, `{"points":[{"lat":40.73,"lng":-73.99}],"exact":true}`); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("exact join status %d, want 422", rec.Code)
	}
	if rec := postJoin(t, s, `{"points":[{"lat":40.73,"lng":-73.99}]}`); rec.Code != http.StatusOK {
		t.Errorf("approximate join status %d, want 200", rec.Code)
	}
	var resp statsResponse
	rec := get(t, s, "/stats")
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.HasGeometry {
		t.Error("stats report hasGeometry=true for an approximate-only index")
	}
}

func TestJoinValidation(t *testing.T) {
	s, _ := testServer(t)
	for _, body := range []string{
		``,
		`not json`,
		`{"points":[]}`,
		`{"points":[{"lat":95,"lng":0}]}`,
	} {
		if rec := postJoin(t, s, body); rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, rec.Code)
		}
	}
	// GET on /join is not routed.
	if rec := get(t, s, "/join"); rec.Code == http.StatusOK {
		t.Error("GET /join should not succeed")
	}
}

// writeZoneGeoJSON writes a one-polygon GeoJSON file: a rectangle around
// (41.5, -74.0), i.e. the area the original test zone misses.
func writeZoneGeoJSON(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "zones.geojson")
	gj := `{"type":"Polygon","coordinates":[[[-74.05,41.45],[-73.95,41.45],[-73.95,41.55],[-74.05,41.55],[-74.05,41.45]]]}`
	if err := os.WriteFile(path, []byte(gj), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func postReload(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/reload", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestReloadUnderTraffic is the zero-downtime property: lookups keep
// succeeding on the old index while POST /reload builds and swaps in a new
// polygon set, and immediately after the swap the new set answers.
func TestReloadUnderTraffic(t *testing.T) {
	s, _ := testServer(t)
	path := writeZoneGeoJSON(t)

	// Background lookups on the original zone's hit point: every response
	// must be valid, before, during, and after the swap.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := get(t, s, "/lookup?lat=40.73&lng=-73.99")
				if rec.Code != http.StatusOK {
					t.Errorf("lookup during reload: status %d", rec.Code)
					return
				}
			}
		}()
	}

	rec := postReload(t, s, `{"polygons":"`+path+`","precision":15}`)
	close(stop)
	wg.Wait()
	if rec.Code != http.StatusOK {
		t.Fatalf("reload status %d: %s", rec.Code, rec.Body)
	}
	var resp reloadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Generation != 2 || resp.NumPolygons != 1 || resp.Epsilon != 15 {
		t.Errorf("reload response = %+v", resp)
	}

	// The new polygon set serves: the old zone is gone, the new one hits.
	var lr lookupResponse
	if err := json.Unmarshal(get(t, s, "/lookup?lat=41.5&lng=-74.0").Body.Bytes(), &lr); err != nil {
		t.Fatal(err)
	}
	if !lr.Matched {
		t.Errorf("new zone lookup = %+v", lr)
	}
	if err := json.Unmarshal(get(t, s, "/lookup?lat=40.73&lng=-73.99").Body.Bytes(), &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Matched {
		t.Errorf("old zone still matches after reload: %+v", lr)
	}
	var st statsResponse
	if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Generation != 2 || st.PrecisionMeters != 15 {
		t.Errorf("stats after reload = %+v", st)
	}
}

// TestReloadFromIndexFile round-trips a serialized index through /reload.
func TestReloadFromIndexFile(t *testing.T) {
	s, idx := testServer(t)
	path := filepath.Join(t.TempDir(), "index.actx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rec := postReload(t, s, `{"index":"`+path+`"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("reload status %d: %s", rec.Code, rec.Body)
	}
	var resp reloadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Generation != 2 || resp.NumPolygons != 1 || resp.Grid != "planar" {
		t.Errorf("reload response = %+v", resp)
	}
}

func TestReloadValidation(t *testing.T) {
	s, _ := testServer(t)
	for _, body := range []string{
		``,
		`not json`,
		`{}`,
		`{"polygons":"a","index":"b"}`,
		`{"polygons":"x","grid":"dodecahedron"}`,
		`{"polygons":"x","precision":-5}`,
	} {
		if rec := postReload(t, s, body); rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, rec.Code)
		}
	}
	// A well-formed request for a missing file fails the build, not the
	// request parse.
	if rec := postReload(t, s, `{"polygons":"/does/not/exist.geojson"}`); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("missing file: status %d, want 422", rec.Code)
	}
}

// TestReloadToken gates the admin endpoint behind the bearer token.
func TestReloadToken(t *testing.T) {
	s, _ := testServer(t)
	s.ReloadToken = "s3cret"
	path := writeZoneGeoJSON(t)
	body := `{"polygons":"` + path + `"}`

	// No credentials at all → 401; wrong or malformed credentials → 403.
	for auth, want := range map[string]int{
		"":             http.StatusUnauthorized,
		"Bearer wrong": http.StatusForbidden,
		"s3cret":       http.StatusForbidden,
	} {
		req := httptest.NewRequest(http.MethodPost, "/reload", strings.NewReader(body))
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != want {
			t.Errorf("auth %q: status %d, want %d", auth, rec.Code, want)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/reload", strings.NewReader(body))
	req.Header.Set("Authorization", "Bearer s3cret")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("valid token: status %d: %s", rec.Code, rec.Body)
	}
}

func TestConcurrentLookups(t *testing.T) {
	s, _ := testServer(t)
	done := make(chan bool)
	for w := 0; w < 8; w++ {
		go func() {
			defer func() { done <- true }()
			for i := 0; i < 200; i++ {
				rec := get(t, s, "/lookup?lat=40.73&lng=-73.99")
				if rec.Code != http.StatusOK {
					t.Errorf("status %d", rec.Code)
					return
				}
			}
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

func TestPprofOptIn(t *testing.T) {
	s, _ := testServer(t)
	// Off by default: the profiling surface must not exist unless enabled.
	if rec := get(t, s, "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Fatalf("pprof served without EnablePprof: %d", rec.Code)
	}
	s.EnablePprof()
	if rec := get(t, s, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Fatalf("pprof index after EnablePprof: %d", rec.Code)
	}
	if rec := get(t, s, "/debug/pprof/cmdline"); rec.Code != http.StatusOK {
		t.Fatalf("pprof cmdline after EnablePprof: %d", rec.Code)
	}
}

// mutationServer builds a server whose index has two static "anchor" zones
// (never mutated) and a low compaction threshold, so mutation tests can
// assert anchors always match while churn polygons come and go and
// compactions fire.
func mutationServer(t *testing.T, threshold int) (*Server, *act.Index) {
	t.Helper()
	anchorA := &act.Polygon{Outer: []act.LatLng{
		{Lat: 40.70, Lng: -74.02}, {Lat: 40.70, Lng: -73.96},
		{Lat: 40.76, Lng: -73.96}, {Lat: 40.76, Lng: -74.02},
	}}
	anchorB := &act.Polygon{Outer: []act.LatLng{
		{Lat: 40.60, Lng: -74.02}, {Lat: 40.60, Lng: -73.96},
		{Lat: 40.66, Lng: -73.96}, {Lat: 40.66, Lng: -74.02},
	}}
	idx, err := act.New([]*act.Polygon{anchorA, anchorB},
		act.WithPrecision(10), act.WithDeltaThreshold(threshold))
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(act.NewSwappable(idx), BuildDefaults{Precision: 10}), idx
}

// churnGeoJSON is a small zone far from the anchors, the unit of mutation
// traffic. Shifting lat by i*0.001 keeps successive inserts distinct.
func churnGeoJSON(i int) string {
	lat := 41.2 + float64(i%50)*0.001
	return fmt.Sprintf(`{"type":"Polygon","coordinates":[[[-73.90,%.3f],[-73.88,%.3f],[-73.88,%.3f],[-73.90,%.3f]]]}`,
		lat, lat, lat+0.01, lat+0.01)
}

func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestInsertAndRemovePolygons(t *testing.T) {
	s, idx := mutationServer(t, -1)

	// Insert one churn zone; it must serve immediately.
	rec := do(t, s, http.MethodPost, "/polygons", churnGeoJSON(0))
	if rec.Code != http.StatusOK {
		t.Fatalf("insert status %d: %s", rec.Code, rec.Body)
	}
	var ir insertResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil {
		t.Fatal(err)
	}
	if len(ir.IDs) != 1 || ir.IDs[0] != 2 || ir.DeltaPolygons != 1 {
		t.Fatalf("insert response = %+v", ir)
	}
	var lr lookupResponse
	if err := json.Unmarshal(get(t, s, "/lookup?lat=41.205&lng=-73.89&exact=1").Body.Bytes(), &lr); err != nil {
		t.Fatal(err)
	}
	if !lr.Matched || len(lr.True) != 1 || lr.True[0] != 2 {
		t.Fatalf("delta zone lookup = %+v", lr)
	}

	// Stats reflect the mutation layer.
	var st statsResponse
	if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Mutable || st.LivePolygons != 3 || st.DeltaPolygons != 1 || st.Tombstones != 0 {
		t.Fatalf("stats after insert = %+v", st)
	}

	// Remove it again: 404 afterwards for the same id, lookups stop
	// matching. The insert still counts until a compaction, and so does the
	// removal: 2 base + 1 inserted - 1 removed = 2 live.
	rec = do(t, s, http.MethodDelete, "/polygons/2", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("remove status %d: %s", rec.Code, rec.Body)
	}
	if rec = do(t, s, http.MethodDelete, "/polygons/2", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("double remove status %d", rec.Code)
	}
	if rec = do(t, s, http.MethodDelete, "/polygons/99", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown remove status %d", rec.Code)
	}
	if rec = do(t, s, http.MethodDelete, "/polygons/bogus", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad id status %d", rec.Code)
	}
	if err := json.Unmarshal(get(t, s, "/lookup?lat=41.205&lng=-73.89").Body.Bytes(), &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Matched {
		t.Fatalf("removed zone still matches: %+v", lr)
	}
	if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.LivePolygons != 2 || st.DeltaPolygons != 1 || st.Tombstones != 1 {
		t.Fatalf("stats after remove = %+v", st)
	}

	// Bad bodies.
	if rec = do(t, s, http.MethodPost, "/polygons", "not json"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body status %d", rec.Code)
	}
	if rec = do(t, s, http.MethodPost, "/polygons", `{"type":"FeatureCollection","features":[]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty collection status %d", rec.Code)
	}
	_ = idx
}

func TestMutationRejectedOnImmutableIndex(t *testing.T) {
	s, idx := testServer(t)
	// Swap in a file-loaded (immutable) index.
	path := filepath.Join(t.TempDir(), "index.actx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	loaded, err := act.OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	s.indexes.Swap(loaded)

	if rec := do(t, s, http.MethodPost, "/polygons", churnGeoJSON(0)); rec.Code != http.StatusConflict {
		t.Fatalf("insert on immutable index: status %d", rec.Code)
	}
	if rec := do(t, s, http.MethodDelete, "/polygons/0", ""); rec.Code != http.StatusConflict {
		t.Fatalf("remove on immutable index: status %d", rec.Code)
	}
	var st statsResponse
	if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Mutable {
		t.Fatalf("stats claim mutable: %+v", st)
	}
}

func TestMutationToken(t *testing.T) {
	s, _ := mutationServer(t, -1)
	s.ReloadToken = "sesame"
	if rec := do(t, s, http.MethodPost, "/polygons", churnGeoJSON(0)); rec.Code != http.StatusUnauthorized {
		t.Fatalf("tokenless insert: status %d", rec.Code)
	}
	if rec := do(t, s, http.MethodDelete, "/polygons/0", ""); rec.Code != http.StatusUnauthorized {
		t.Fatalf("tokenless remove: status %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/polygons", strings.NewReader(churnGeoJSON(0)))
	req.Header.Set("Authorization", "Bearer sesame")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("authorized insert: status %d: %s", rec.Code, rec.Body)
	}
}

// TestMutationUnderTraffic hammers the live index with concurrent inserts
// and removes of churn zones (threshold low enough that compactions fire
// mid-stream) while NDJSON /join readers stream batches over the anchor
// zones. Every join response must contain exactly one pair per (point,
// anchor) — no lost matches when an epoch swaps mid-request, no duplicated
// ones from the delta merge — plus a well-formed trailer.
func TestMutationUnderTraffic(t *testing.T) {
	s, idx := mutationServer(t, 4)

	// Anchor interior probe points: two in anchor A, one in anchor B.
	joinBody := `{"points":[{"lat":40.73,"lng":-73.99},{"lat":40.75,"lng":-73.97},{"lat":40.63,"lng":-73.99}],"threads":2}`
	wantPairs := map[string]int{"0/0": 1, "1/0": 1, "2/1": 1}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Mutators: two goroutines inserting churn zones, one removing them.
	var inserted sync.Map
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := do(t, s, http.MethodPost, "/polygons", churnGeoJSON(m*25+i))
				if rec.Code != http.StatusOK {
					t.Errorf("insert: status %d: %s", rec.Code, rec.Body)
					return
				}
				var ir insertResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil {
					t.Error(err)
					return
				}
				for _, id := range ir.IDs {
					inserted.Store(id, true)
				}
			}
		}(m)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			inserted.Range(func(k, _ any) bool {
				inserted.Delete(k)
				rec := do(t, s, http.MethodDelete, fmt.Sprintf("/polygons/%d", k.(uint32)), "")
				if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
					t.Errorf("remove %v: status %d: %s", k, rec.Code, rec.Body)
				}
				return false // one per sweep, keep churn going
			})
		}
	}()

	// Readers: stream joins and check anchor pair exactness per response.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 40; n++ {
				rec := do(t, s, http.MethodPost, "/join", joinBody)
				if rec.Code != http.StatusOK {
					t.Errorf("join: status %d: %s", rec.Code, rec.Body)
					return
				}
				got := map[string]int{}
				sawTrailer := false
				for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
					var pair joinPair
					if err := json.Unmarshal([]byte(line), &pair); err == nil && pair.Class != "" {
						got[fmt.Sprintf("%d/%d", pair.Point, pair.Polygon)]++
						continue
					}
					var tr joinTrailer
					if err := json.Unmarshal([]byte(line), &tr); err == nil {
						sawTrailer = true
					}
				}
				if !sawTrailer {
					t.Errorf("join response missing stats trailer")
					return
				}
				for key, want := range wantPairs {
					if got[key] != want {
						t.Errorf("join pair %s seen %d times, want %d (full: %v)", key, got[key], want, got)
						return
					}
				}
			}
		}()
	}

	// Keep the churn flowing until a compaction has demonstrably fired
	// mid-stream (bounded by a deadline so a regression fails instead of
	// hanging), then stop the mutators and let everyone drain.
	deadline := time.Now().Add(30 * time.Second)
	for idx.Status().Compactions == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if idx.Status().Compactions == 0 {
		t.Fatal("no compaction fired under mutation traffic")
	}
	// The anchors survived all the churn.
	var lr lookupResponse
	if err := json.Unmarshal(get(t, s, "/lookup?lat=40.73&lng=-73.99").Body.Bytes(), &lr); err != nil {
		t.Fatal(err)
	}
	if !lr.Matched {
		t.Fatalf("anchor lost after churn: %+v", lr)
	}
}

// writeIndexFile serializes the server's current index to a temp file and
// returns the path.
func writeIndexFile(t *testing.T, idx *act.Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.actx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMmapServeAndReloadRace exercises the zero-copy serving path under
// live traffic: an index file is reloaded in (memory-mapped), /stats must
// report it as mapped, and then concurrent joins and lookups hammer the
// service while /reload repeatedly swings between two mapped index files.
// Under -race this proves readers of a swapped-out mapping retire before
// the runtime releases it.
func TestMmapServeAndReloadRace(t *testing.T) {
	s, idx := testServer(t)
	path := writeIndexFile(t, idx)

	if rec := postReload(t, s, `{"index":"`+path+`"}`); rec.Code != http.StatusOK {
		t.Fatalf("reload status %d: %s", rec.Code, rec.Body)
	}
	var st statsResponse
	if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Mapped {
		t.Skip("mmap unavailable on this platform; fallback path covered elsewhere")
	}

	// Join traffic against the mapped index while reloads swing the epoch.
	joinBody := `{"points":[{"lat":40.73,"lng":-73.99},{"lat":40.71,"lng":-74.0},{"lat":10,"lng":10}],"exact":true}`
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rec := postJoin(t, s, joinBody); rec.Code != http.StatusOK {
					t.Errorf("join during mmap reload: status %d", rec.Code)
					return
				}
				if rec := get(t, s, "/lookup?lat=40.73&lng=-73.99"); rec.Code != http.StatusOK {
					t.Errorf("lookup during mmap reload: status %d", rec.Code)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		if rec := postReload(t, s, `{"index":"`+path+`"}`); rec.Code != http.StatusOK {
			t.Fatalf("reload %d status %d: %s", i, rec.Code, rec.Body)
		}
	}
	close(stop)
	wg.Wait()

	if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Mapped || st.Mutable {
		t.Errorf("stats after mmap reloads = %+v, want mapped immutable index", st)
	}
	// A mapped index is immutable: the mutation endpoints must refuse.
	req := httptest.NewRequest(http.MethodDelete, "/polygons/0", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusConflict {
		t.Errorf("DELETE on mapped index: status %d, want 409", rec.Code)
	}
}

// TestStatsMappedAfterCompaction: a recovered primary reports "mapped"
// while its snapshot's trie serves from the file mapping, and stops once a
// compaction has replaced that trie with a heap-built one.
func TestStatsMappedAfterCompaction(t *testing.T) {
	_, built := mutationServer(t, -1)
	idx, err := act.Recover(writeIndexFile(t, built), filepath.Join(t.TempDir(), "delta.wal"), act.WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	s := NewServer(act.NewSwappable(idx), BuildDefaults{Precision: 10})
	stats := func() (st statsResponse) {
		t.Helper()
		if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	if !stats().Mapped {
		t.Skip("mmap unavailable on this platform")
	}
	if rec := do(t, s, http.MethodPost, "/polygons", churnGeoJSON(0)); rec.Code != http.StatusOK {
		t.Fatalf("insert status %d: %s", rec.Code, rec.Body)
	}
	if err := idx.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := stats(); st.Mapped || st.Compactions != 1 {
		t.Fatalf("stats after compaction = %+v, want a heap-served trie and one compaction", st)
	}
}

// TestInsertBodyCap: a POST /polygons body beyond Server.MaxPolygonBytes is
// refused with 413 before any polygon is parsed, and a body under the cap
// still inserts.
func TestInsertBodyCap(t *testing.T) {
	s, _ := mutationServer(t, -1)
	s.MaxPolygonBytes = 256

	small := churnGeoJSON(0)
	if len(small) > 256 {
		t.Fatalf("test fixture is %d bytes, want <= 256", len(small))
	}
	if rec := do(t, s, http.MethodPost, "/polygons", small); rec.Code != http.StatusOK {
		t.Fatalf("under-cap insert status %d: %s", rec.Code, rec.Body)
	}

	big := `{"type":"Polygon","coordinates":[[` + strings.Repeat("[0,0],", 100) + `[0,0]]]}`
	if len(big) <= 256 {
		t.Fatalf("oversize fixture is only %d bytes", len(big))
	}
	rec := do(t, s, http.MethodPost, "/polygons", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap insert status %d, want 413: %s", rec.Code, rec.Body)
	}
	// The cap must not have let the oversize body mutate the index.
	var st statsResponse
	if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.DeltaPolygons != 1 {
		t.Fatalf("deltaPolygons = %d after rejected insert, want 1", st.DeltaPolygons)
	}
}

// TestStatsDurabilityFields: /stats reports the WAL position for a
// log-attached index and inert values for one without.
func TestStatsDurabilityFields(t *testing.T) {
	s, _ := testServer(t)
	var st statsResponse
	if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.WALEnabled || st.WALSeq != 0 || st.LastFsyncMillis != -1 || st.RecoveredRecords != 0 {
		t.Fatalf("no-WAL stats = %+v, want inert durability fields", st)
	}

	zone := &act.Polygon{Outer: []act.LatLng{
		{Lat: 40.70, Lng: -74.02}, {Lat: 40.70, Lng: -73.96},
		{Lat: 40.76, Lng: -73.96}, {Lat: 40.76, Lng: -74.02},
	}}
	walPath := filepath.Join(t.TempDir(), "serve.wal")
	idx, err := act.New([]*act.Polygon{zone},
		act.WithPrecision(10), act.WithDeltaThreshold(-1),
		act.WithWAL(act.WALConfig{Path: walPath}))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	ws := NewServer(act.NewSwappable(idx), BuildDefaults{Precision: 10})

	if rec := do(t, ws, http.MethodPost, "/polygons", churnGeoJSON(0)); rec.Code != http.StatusOK {
		t.Fatalf("insert status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(get(t, ws, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.WALEnabled || st.WALSeq != 1 || st.WALBytes <= 0 || st.RecoveredRecords != 0 {
		t.Fatalf("WAL stats after insert = %+v", st)
	}
	// SyncAlways: the insert was fsynced before it was acknowledged.
	if st.LastFsyncMillis <= 0 {
		t.Fatalf("lastFsyncMillis = %d under SyncAlways", st.LastFsyncMillis)
	}
}

// TestStatsOneEpoch: /stats renders one Status, so under concurrent inserts,
// removals of base ids and background compactions every response's base
// count plus delta minus tombstones is its live count.
func TestStatsOneEpoch(t *testing.T) {
	const initial, inserts = 16, 40
	var polys []*act.Polygon
	for i := range initial {
		lat, lng := 40.0+0.05*float64(i%4), -74.0+0.05*float64(i/4)
		polys = append(polys, &act.Polygon{Outer: []act.LatLng{
			{Lat: lat, Lng: lng}, {Lat: lat, Lng: lng + 0.02},
			{Lat: lat + 0.02, Lng: lng + 0.02}, {Lat: lat + 0.02, Lng: lng},
		}})
	}
	idx, err := act.New(polys, act.WithPrecision(10), act.WithDeltaThreshold(3))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	s := NewServer(act.NewSwappable(idx), BuildDefaults{Precision: 10})

	var writers, readers sync.WaitGroup
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := range inserts {
			if rec := do(t, s, http.MethodPost, "/polygons", churnGeoJSON(i)); rec.Code != http.StatusOK {
				t.Errorf("insert: status %d: %s", rec.Code, rec.Body)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for id := 0; id < initial; id += 2 {
			if rec := do(t, s, http.MethodDelete, fmt.Sprintf("/polygons/%d", id), ""); rec.Code != http.StatusOK {
				t.Errorf("remove %d: status %d: %s", id, rec.Code, rec.Body)
				return
			}
		}
	}()
	done := make(chan struct{})
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var st statsResponse
				if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &st); err != nil {
					t.Error(err)
					return
				}
				if got := st.NumPolygons + st.DeltaPolygons - st.Tombstones; got != st.LivePolygons {
					t.Errorf("torn /stats: %d base + %d delta - %d tombstones = %d, but %d live",
						st.NumPolygons, st.DeltaPolygons, st.Tombstones, got, st.LivePolygons)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if st := idx.Status(); st.Live != initial/2+inserts || st.Compactions == 0 {
		t.Fatalf("after churn: %d live, %d compactions; want %d live after at least one compaction",
			st.Live, st.Compactions, initial/2+inserts)
	}
}

// TestBodyCaps413: every bounded-body endpoint refuses an oversized body
// with 413 and the limit it tripped — never the generic 400 a JSON syntax
// error gets — and still serves a well-formed body under the cap.
func TestBodyCaps413(t *testing.T) {
	pad := strings.Repeat(`{"lat":40.72,"lng":-74.0},`, 40)
	cases := []struct {
		name, path string
		cap        func(s *Server)
		under      string // must not be refused as too large
		over       string // valid JSON beyond the cap: must be 413
	}{
		{
			name: "join", path: "/join",
			cap:   func(s *Server) { s.MaxJoinBytes = 128 },
			under: `{"points":[{"lat":40.72,"lng":-74.0}]}`,
			over:  `{"points":[` + pad + `{"lat":40.72,"lng":-74.0}]}`,
		},
		{
			name: "reload", path: "/reload",
			cap:   func(s *Server) { s.MaxReloadBytes = 128 },
			under: `{"polygons":"` + filepath.Join(t.TempDir(), "absent.geojson") + `"}`,
			over:  `{"polygons":"` + strings.Repeat("x", 256) + `"}`,
		},
		{
			name: "polygons", path: "/polygons",
			cap:   func(s *Server) { s.MaxPolygonBytes = 128 },
			under: churnGeoJSON(0),
			over:  `{"type":"Polygon","coordinates":[[` + strings.Repeat("[0,0],", 100) + `[0,0]]]}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := mutationServer(t, -1)
			tc.cap(s)
			if len(tc.under) > 128 {
				t.Fatalf("under-cap fixture is %d bytes, want <= 128", len(tc.under))
			}
			if len(tc.over) <= 128 {
				t.Fatalf("over-cap fixture is only %d bytes", len(tc.over))
			}
			rec := do(t, s, http.MethodPost, tc.path, tc.over)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("over-cap status %d, want 413: %s", rec.Code, rec.Body)
			}
			if !strings.Contains(rec.Body.String(), "body exceeds 128 bytes") {
				t.Fatalf("over-cap message %q does not name the limit", rec.Body)
			}
			rec = do(t, s, http.MethodPost, tc.path, tc.under)
			if rec.Code == http.StatusRequestEntityTooLarge || rec.Code == http.StatusBadRequest {
				t.Fatalf("under-cap status %d: %s", rec.Code, rec.Body)
			}
		})
	}
}

// TestReplicationRoles: a server over a WAL+snapshot index serves the
// replication endpoints and reports role "primary" with no setup call; a
// server wrapped around a live follower reports its stream position in
// /stats, serves lookups, and answers every mutating endpoint 409 pointing
// at the primary.
func TestReplicationRoles(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "primary.wal")
	snapPath := filepath.Join(dir, "primary.snapshot")
	zone := &act.Polygon{Outer: []act.LatLng{
		{Lat: 40.70, Lng: -74.02}, {Lat: 40.70, Lng: -73.96},
		{Lat: 40.76, Lng: -73.96}, {Lat: 40.76, Lng: -74.02},
	}}
	// Auto-compaction off: with a one-polygon base the first insert would
	// otherwise checkpoint immediately, rotating the log past the follower
	// mid-bootstrap — handled (it re-bootstraps), but the Bootstraps == 1
	// assertion below wants a quiet primary.
	idx, err := act.New([]*act.Polygon{zone},
		act.WithPrecision(10),
		act.WithDeltaThreshold(-1),
		act.WithWAL(act.WALConfig{Path: walPath, SnapshotPath: snapPath}))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	ps := NewServer(act.NewSwappable(idx), BuildDefaults{Precision: 10})
	var st statsResponse
	if err := json.Unmarshal(get(t, ps, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "primary" || st.Replication != nil {
		t.Fatalf("primary stats: role %q, replication %+v", st.Role, st.Replication)
	}
	if rec := get(t, ps, replica.SnapshotPath); rec.Code != http.StatusOK {
		t.Fatalf("primary snapshot endpoint: status %d: %s", rec.Code, rec.Body)
	}

	// A real follower fed over HTTP, caught up to one acknowledged insert.
	psrv := httptest.NewServer(ps)
	defer psrv.Close()
	var served act.Swappable
	fol := replica.NewFollower(psrv.URL, t.TempDir(), &served)
	fol.BackoffMin = time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		fol.Run(ctx)
	}()
	defer func() {
		cancel()
		<-runDone
		if fidx := served.Load(); fidx != nil {
			fidx.Close()
		}
	}()
	if rec := do(t, ps, http.MethodPost, "/polygons", churnGeoJSON(0)); rec.Code != http.StatusOK {
		t.Fatalf("primary insert status %d: %s", rec.Code, rec.Body)
	}
	deadline := time.Now().Add(20 * time.Second)
	for fol.Status().AppliedSeq < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never caught up")
		}
		time.Sleep(time.Millisecond)
	}

	fs := NewServer(&served, BuildDefaults{Precision: 10})
	fs.EnableFollower(fol)
	if err := json.Unmarshal(get(t, fs, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "follower" || st.Replication == nil {
		t.Fatalf("follower stats: role %q, replication %+v", st.Role, st.Replication)
	}
	if st.Replication.AppliedSeq < 1 || st.Replication.Bootstraps != 1 || st.Replication.Lag != st.Replication.PrimarySeq-st.Replication.AppliedSeq {
		t.Fatalf("follower replication stats: %+v", st.Replication)
	}
	if rec := get(t, fs, "/lookup?lat=40.73&lng=-74.0"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), `"matched":true`) {
		t.Fatalf("follower lookup: status %d: %s", rec.Code, rec.Body)
	}
	for _, m := range []struct{ method, path, body string }{
		{http.MethodPost, "/polygons", churnGeoJSON(1)},
		{http.MethodDelete, "/polygons/0", ""},
		{http.MethodPost, "/reload", `{"polygons":"x.geojson"}`},
	} {
		rec := do(t, fs, m.method, m.path, m.body)
		if rec.Code != http.StatusConflict {
			t.Fatalf("%s %s on follower: status %d, want 409: %s", m.method, m.path, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "primary") {
			t.Fatalf("%s %s on follower: %q does not point at the primary", m.method, m.path, rec.Body)
		}
	}
}
