package server

// Failover behavior of the serving layer: graceful degradation to
// read-only when the WAL trips fail-stop, the runtime POST /promote flow,
// and the auth gate on the replication endpoints.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/fault"
	"github.com/actindex/act/internal/replica"
	"github.com/actindex/act/internal/wal"
)

// TestReadOnlyDegradation: when the index's write-ahead log dies (injected
// fsync failure), mutations answer 503 while lookups keep serving, and
// /stats surfaces readOnly with the failure cause.
func TestReadOnlyDegradation(t *testing.T) {
	zone := &act.Polygon{Outer: []act.LatLng{
		{Lat: 40.70, Lng: -74.02}, {Lat: 40.70, Lng: -73.96},
		{Lat: 40.76, Lng: -73.96}, {Lat: 40.76, Lng: -74.02},
	}}
	// Sync 1 is the fresh log's header fsync; the first insert's fsync (and
	// every one after) hits the dead disk.
	sched := fault.NewSchedule().FailFrom(fault.OpSync, 2, syscall.EIO)
	walPath := filepath.Join(t.TempDir(), "serve.wal")
	idx, err := act.New([]*act.Polygon{zone},
		act.WithPrecision(10), act.WithDeltaThreshold(-1),
		act.WithWAL(act.WALConfig{Path: walPath, FS: fault.FS{S: sched}}))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	s := NewServer(act.NewSwappable(idx), BuildDefaults{Precision: 10})

	// Healthy to start.
	var st statsResponse
	if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ReadOnly || st.WALFailed != "" {
		t.Fatalf("fresh stats report degradation: %+v", st)
	}

	// The insert hits the dead disk: 503, not acknowledged.
	rec := do(t, s, http.MethodPost, "/polygons", churnGeoJSON(0))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("insert on dead disk: status %d, want 503: %s", rec.Code, rec.Body)
	}
	// Sticky: every further mutation is refused the same way.
	if rec := do(t, s, http.MethodPost, "/polygons", churnGeoJSON(1)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("second insert: status %d, want 503: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodDelete, "/polygons/0", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("remove: status %d, want 503: %s", rec.Code, rec.Body)
	}

	// Degraded, not down: reads still serve the last acknowledged state.
	if rec := get(t, s, "/lookup?lat=40.73&lng=-73.99"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), `"matched":true`) {
		t.Fatalf("lookup on degraded server: status %d: %s", rec.Code, rec.Body)
	}
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz on degraded server: status %d", rec.Code)
	}

	// /stats tells the operator what happened.
	if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.ReadOnly || st.WALFailed == "" {
		t.Fatalf("degraded stats: readOnly=%v walFailed=%q, want the failure surfaced", st.ReadOnly, st.WALFailed)
	}
	if !strings.Contains(st.WALFailed, "input/output error") {
		t.Fatalf("walFailed %q does not carry the cause", st.WALFailed)
	}
}

// TestPromoteEndpoint: POST /promote flips a live follower server into the
// next primary — mutations open up, the /replication/* endpoints activate,
// and /stats reports the bumped epoch.
func TestPromoteEndpoint(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "primary.wal")
	snapPath := filepath.Join(dir, "primary.snapshot")
	zone := &act.Polygon{Outer: []act.LatLng{
		{Lat: 40.70, Lng: -74.02}, {Lat: 40.70, Lng: -73.96},
		{Lat: 40.76, Lng: -73.96}, {Lat: 40.76, Lng: -74.02},
	}}
	idx, err := act.New([]*act.Polygon{zone},
		act.WithPrecision(10), act.WithDeltaThreshold(-1),
		act.WithWAL(act.WALConfig{Path: walPath, SnapshotPath: snapPath}))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	// No setup call: the WAL+snapshot index makes the server a primary.
	ps := NewServer(act.NewSwappable(idx), BuildDefaults{Precision: 10})
	psrv := httptest.NewServer(ps)
	defer psrv.Close()

	// Promoting a server that is not a follower is refused.
	if rec := do(t, ps, http.MethodPost, "/promote", ""); rec.Code != http.StatusConflict {
		t.Fatalf("promote on a primary: status %d, want 409: %s", rec.Code, rec.Body)
	}

	var served act.Swappable
	fol := replica.NewFollower(psrv.URL, t.TempDir(), &served)
	fol.BackoffMin = time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan struct{})
	go func() { defer close(runDone); fol.Run(ctx) }()
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
	// Not a primary yet: the replication endpoints back off the caller.
	if rec := get(t, fs, replica.SnapshotPath); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("snapshot on a follower: status %d, want 503", rec.Code)
	}

	rec := do(t, fs, http.MethodPost, "/promote", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("promote: status %d: %s", rec.Code, rec.Body)
	}
	var pr promoteResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Role != "primary" || pr.Epoch != 1 {
		t.Fatalf("promote response = %+v, want primary at epoch 1", pr)
	}

	// The server is now the primary: mutations open up, the replication
	// endpoints serve, and /stats reports the new role and epoch.
	if rec := do(t, fs, http.MethodPost, "/polygons", churnGeoJSON(1)); rec.Code != http.StatusOK {
		t.Fatalf("insert on promoted server: status %d: %s", rec.Code, rec.Body)
	}
	if rec := get(t, fs, replica.SnapshotPath); rec.Code != http.StatusOK {
		t.Fatalf("snapshot on promoted server: status %d: %s", rec.Code, rec.Body)
	}
	var st statsResponse
	if err := json.Unmarshal(get(t, fs, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "primary" || st.WALEpoch != 1 || !st.Mutable {
		t.Fatalf("promoted stats: role=%q walEpoch=%d mutable=%v", st.Role, st.WALEpoch, st.Mutable)
	}
	// No follower view survives: /stats drops the replication block, and
	// /reload is refused as on a native primary, whose log a swapped-in
	// index would drop.
	if st.Replication != nil {
		t.Fatalf("promoted stats still carry a replication block: %+v", st.Replication)
	}
	missing := filepath.Join(dir, "missing.act")
	if rec := do(t, fs, http.MethodPost, "/reload", `{"index":"`+missing+`"}`); rec.Code != http.StatusConflict {
		t.Fatalf("reload on promoted server: status %d, want 409: %s", rec.Code, rec.Body)
	}

	// A second promotion is refused: the server is a primary now.
	if rec := do(t, fs, http.MethodPost, "/promote", ""); rec.Code != http.StatusConflict {
		t.Fatalf("second promote: status %d, want 409: %s", rec.Code, rec.Body)
	}
}

// TestPromoteRefusedKeepsStreaming: a /promote refused with 409 (the
// primary announced more than the follower holds) leaves the server a
// follower whose stream reconnects on its own: /stats shows
// replication.connected again.
func TestPromoteRefusedKeepsStreaming(t *testing.T) {
	dir := t.TempDir()
	zone := &act.Polygon{Outer: []act.LatLng{
		{Lat: 40.70, Lng: -74.02}, {Lat: 40.70, Lng: -73.96},
		{Lat: 40.76, Lng: -73.96}, {Lat: 40.76, Lng: -74.02},
	}}
	idx, err := act.New([]*act.Polygon{zone},
		act.WithPrecision(10), act.WithDeltaThreshold(-1),
		act.WithWAL(act.WALConfig{Path: filepath.Join(dir, "primary.wal"), SnapshotPath: filepath.Join(dir, "primary.snapshot")}))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	ps := NewServer(act.NewSwappable(idx), BuildDefaults{Precision: 10})
	var lie atomic.Bool // set: the next stream announces seq 100 and hangs up
	psrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == replica.StreamPath && lie.CompareAndSwap(true, false) {
			w.Write(wal.EncodeFrame(wal.Record{Type: wal.TypeCheckpoint, Seq: 100}))
			return
		}
		ps.ServeHTTP(w, r)
	}))
	defer psrv.Close()

	var served act.Swappable
	fol := replica.NewFollower(psrv.URL, t.TempDir(), &served)
	fol.BackoffMin = time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() { defer close(runDone); fol.Run(ctx) }()
	defer func() {
		cancel()
		<-runDone
		if fidx := served.Load(); fidx != nil {
			fidx.Close()
		}
	}()
	deadline := time.Now().Add(20 * time.Second)
	for served.Load() == nil || !fol.Status().Connected {
		if time.Now().After(deadline) {
			t.Fatal("follower never connected")
		}
		time.Sleep(time.Millisecond)
	}
	fs := NewServer(&served, BuildDefaults{Precision: 10})
	fs.EnableFollower(fol)
	connected := func() bool {
		var st statsResponse
		if err := json.Unmarshal(get(t, fs, "/stats").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.Role == "follower" && st.Replication != nil && st.Replication.Connected
	}

	lie.Store(true)
	if rec := do(t, fs, http.MethodPost, "/promote", ""); rec.Code != http.StatusConflict {
		t.Fatalf("promote behind an announced seq 100: status %d, want 409: %s", rec.Code, rec.Body)
	}
	for !connected() {
		if time.Now().After(deadline) {
			t.Fatal("replication never reconnected after the refused promotion")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReloadRefusedOnLoggedIndex: /reload answers 409 whenever the served
// index writes a log. Swapping in a fresh index would drop the log — later
// inserts acknowledged without an entry and lost on restart — and a primary
// would keep feeding followers the swapped-out index's snapshot and log.
func TestReloadRefusedOnLoggedIndex(t *testing.T) {
	dir := t.TempDir()
	// A valid reload source: a server that accepted the reload would answer
	// 200, not a build error.
	src := filepath.Join(dir, "zones.geojson")
	if err := os.WriteFile(src, []byte(churnGeoJSON(7)), 0o644); err != nil {
		t.Fatal(err)
	}
	reload := `{"polygons":"` + src + `"}`
	zone := &act.Polygon{Outer: []act.LatLng{
		{Lat: 40.70, Lng: -74.02}, {Lat: 40.70, Lng: -73.96},
		{Lat: 40.76, Lng: -73.96}, {Lat: 40.76, Lng: -74.02},
	}}
	logged := func(t *testing.T, cfg act.WALConfig) *Server {
		idx, err := act.New([]*act.Polygon{zone},
			act.WithPrecision(10), act.WithDeltaThreshold(-1), act.WithWAL(cfg))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { idx.Close() })
		return NewServer(act.NewSwappable(idx), BuildDefaults{Precision: 10})
	}

	t.Run("primary", func(t *testing.T) {
		s := logged(t, act.WALConfig{
			Path:         filepath.Join(dir, "primary.wal"),
			SnapshotPath: filepath.Join(dir, "primary.snapshot"),
		})
		if rec := do(t, s, http.MethodPost, "/reload", reload); rec.Code != http.StatusConflict {
			t.Fatalf("reload on a primary: status %d, want 409: %s", rec.Code, rec.Body)
		}
		var st statsResponse
		if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if !st.WALEnabled || st.Role != "primary" {
			t.Fatalf("stats after refused reload: walEnabled=%v role=%q, want a logged primary", st.WALEnabled, st.Role)
		}
		before := s.indexes.Load().Status().WAL.Seq
		if rec := do(t, s, http.MethodPost, "/polygons", churnGeoJSON(0)); rec.Code != http.StatusOK {
			t.Fatalf("insert: status %d: %s", rec.Code, rec.Body)
		}
		if after := s.indexes.Load().Status().WAL.Seq; after <= before {
			t.Fatalf("insert acknowledged without a log entry: seq %d → %d", before, after)
		}
		if rec := get(t, s, replica.SnapshotPath); rec.Code != http.StatusOK {
			t.Fatalf("snapshot after refused reload: status %d: %s", rec.Code, rec.Body)
		}
	})

	t.Run("wal-only", func(t *testing.T) {
		s := logged(t, act.WALConfig{Path: filepath.Join(dir, "standalone.wal")})
		if rec := do(t, s, http.MethodPost, "/reload", reload); rec.Code != http.StatusConflict {
			t.Fatalf("reload on a logged standalone server: status %d, want 409: %s", rec.Code, rec.Body)
		}
		for _, path := range []string{replica.SnapshotPath, replica.StreamPath} {
			if rec := get(t, s, path); rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("%s without a checkpoint snapshot: status %d, want 503: %s", path, rec.Code, rec.Body)
			}
		}
	})
}

// TestReplicationAuth: the replication and promotion endpoints honor the
// bearer-token gate exactly like the other state-changing endpoints — 401
// without credentials, 403 with wrong ones, and through with the token.
func TestReplicationAuth(t *testing.T) {
	s, _ := testServer(t)
	s.ReloadToken = "s3cret"

	endpoints := []struct{ method, path string }{
		{http.MethodGet, replica.SnapshotPath},
		{http.MethodGet, replica.StreamPath},
		{http.MethodPost, "/promote"},
	}
	for _, ep := range endpoints {
		t.Run(ep.method+" "+ep.path, func(t *testing.T) {
			// No credentials → 401 with a challenge.
			req := httptest.NewRequest(ep.method, ep.path, nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusUnauthorized {
				t.Fatalf("no credentials: status %d, want 401", rec.Code)
			}
			if got := rec.Header().Get("WWW-Authenticate"); got != "Bearer" {
				t.Fatalf("WWW-Authenticate %q, want Bearer", got)
			}
			// Wrong credentials → 403.
			req = httptest.NewRequest(ep.method, ep.path, nil)
			req.Header.Set("Authorization", "Bearer wrong")
			rec = httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusForbidden {
				t.Fatalf("wrong credentials: status %d, want 403", rec.Code)
			}
			// The right token passes the gate; this standalone server then
			// refuses on role grounds (503 not-a-primary / 409 not-a-follower),
			// never on auth grounds.
			req = httptest.NewRequest(ep.method, ep.path, nil)
			req.Header.Set("Authorization", "Bearer s3cret")
			rec = httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code == http.StatusUnauthorized || rec.Code == http.StatusForbidden {
				t.Fatalf("valid token: status %d, want the auth gate passed", rec.Code)
			}
		})
	}
}
