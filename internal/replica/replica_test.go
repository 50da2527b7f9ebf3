package replica_test

// Stream-cut property test for primary → follower replication: the wire is
// cut at every record boundary (and at byte offsets inside frames), the
// follower reconnects and resumes, and after every acknowledged primary
// mutation the follower's lookups match the primary's acknowledged prefix
// exactly. Log rotation mid-stream and a checkpoint that outruns a
// disconnected follower (410 → re-bootstrap) are driven through the same
// harness, ending with a join-equivalence check: identical pair counts on
// primary and follower.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/replica"
)

// square builds a small axis-aligned square polygon centered at (lat, lng).
func square(lat, lng, d float64) *act.Polygon {
	return &act.Polygon{Outer: []act.LatLng{
		{Lat: lat - d, Lng: lng - d},
		{Lat: lat - d, Lng: lng + d},
		{Lat: lat + d, Lng: lng + d},
		{Lat: lat + d, Lng: lng - d},
	}}
}

// hasID reports whether a lookup at ll returns id (true hit or candidate).
func hasID(idx *act.Index, ll act.LatLng, id uint32) bool {
	var res act.Result
	idx.Lookup(ll, act.Approximate, &res)
	return slices.Contains(res.True, id) || slices.Contains(res.Candidates, id)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// Cut modes for the stream middleware.
const (
	cutOff    = iota // pass everything through
	cutFrames        // abort the response after one frame write
	cutBytes         // abort after a per-connection byte budget (grows each connection)
	cutGate          // refuse stream requests outright (503)
)

// cutter wraps the primary's mux and injures /replication/stream responses
// according to the current mode. Each frame the stream handler emits is one
// Write call, so a write budget cuts exactly at record boundaries; a byte
// budget cuts mid-frame. Every successful write is flushed so the bytes the
// follower was promised actually cross before the cut. Switching modes
// cancels the in-flight streams, so a long-lived connection opened under a
// permissive mode cannot outlive a gate.
type cutter struct {
	inner http.Handler
	mu    sync.Mutex
	mode  int
	conns int
	kill  []context.CancelFunc
}

func (c *cutter) setMode(mode int) {
	c.mu.Lock()
	c.mode = mode
	c.conns = 0
	kill := c.kill
	c.kill = nil
	c.mu.Unlock()
	for _, cancel := range kill {
		cancel()
	}
}

func (c *cutter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != replica.StreamPath {
		c.inner.ServeHTTP(w, r)
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	c.mu.Lock()
	mode := c.mode
	conn := c.conns
	c.conns++
	c.kill = append(c.kill, cancel)
	c.mu.Unlock()
	r = r.WithContext(ctx)
	switch mode {
	case cutGate:
		http.Error(w, "gated", http.StatusServiceUnavailable)
		return
	case cutOff:
		c.inner.ServeHTTP(w, r)
		return
	}
	cw := &cuttingWriter{ResponseWriter: w, writesLeft: -1, bytesLeft: -1}
	cw.flusher, _ = w.(http.Flusher)
	if mode == cutFrames {
		cw.writesLeft = 1
	} else {
		// Growing budget sweeps the cut across every in-frame byte offset
		// while still guaranteeing progress once it exceeds a frame.
		cw.bytesLeft = 1 + 16*conn
	}
	c.inner.ServeHTTP(cw, r)
}

type cuttingWriter struct {
	http.ResponseWriter
	flusher    http.Flusher
	writesLeft int // whole-write budget; -1 = unlimited
	bytesLeft  int // byte budget; -1 = unlimited
}

func (c *cuttingWriter) flush() {
	if c.flusher != nil {
		c.flusher.Flush()
	}
}

func (c *cuttingWriter) Flush() { c.flush() }

func (c *cuttingWriter) Write(b []byte) (int, error) {
	if c.writesLeft == 0 || c.bytesLeft == 0 {
		panic(http.ErrAbortHandler)
	}
	if c.bytesLeft > 0 && len(b) > c.bytesLeft {
		c.ResponseWriter.Write(b[:c.bytesLeft])
		c.flush()
		c.bytesLeft = 0
		panic(http.ErrAbortHandler) // cut mid-frame
	}
	if c.bytesLeft > 0 {
		c.bytesLeft -= len(b)
	}
	if c.writesLeft > 0 {
		c.writesLeft--
	}
	n, err := c.ResponseWriter.Write(b)
	c.flush()
	return n, err
}

func TestFollowerStreamCutProperty(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "primary.wal")
	snapPath := filepath.Join(dir, "primary.snapshot")
	ctx := context.Background()

	// Primary: four base squares on a diagonal; every later insert gets its
	// own spot so a lookup at a center is unambiguous.
	centers := map[uint32]act.LatLng{}
	liveSet := map[uint32]bool{}
	var base []*act.Polygon
	spot := func(i int) (float64, float64) { return 10 + 0.5*float64(i), 10 + 0.5*float64(i) }
	for i := 0; i < 4; i++ {
		lat, lng := spot(i)
		base = append(base, square(lat, lng, 0.1))
		centers[uint32(i)] = act.LatLng{Lat: lat, Lng: lng}
		liveSet[uint32(i)] = true
	}
	// Auto-compaction off on the primary: each checkpoint (log rotation) in
	// this test is driven explicitly, so the phases that assert "no
	// re-bootstrap happened" are deterministic. Followers re-bootstrapping
	// on a primary that compacts aggressively is correct but untimeable.
	idx, err := act.New(base,
		act.WithPrecision(250),
		act.WithDeltaThreshold(-1),
		act.WithWAL(act.WALConfig{Path: walPath, SnapshotPath: snapPath}))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	primary := replica.NewPrimary(idx)
	primary.Heartbeat = 50 * time.Millisecond
	mux := http.NewServeMux()
	primary.Mount(mux)
	cut := &cutter{inner: mux, mode: cutFrames}
	srv := httptest.NewServer(cut)
	defer srv.Close()

	// Follower with a tiny delta threshold, so replication also drives its
	// background compaction (the epoch rebuild keeping memory bounded).
	var served act.Swappable
	fol := replica.NewFollower(srv.URL, t.TempDir(), &served, act.WithDeltaThreshold(8))
	fol.BackoffMin = time.Millisecond
	fol.BackoffMax = 20 * time.Millisecond
	runCtx, cancel := context.WithCancel(ctx)
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		fol.Run(runCtx)
	}()
	defer func() {
		cancel()
		<-runDone
		if ix := served.Load(); ix != nil {
			ix.Close()
		}
	}()
	waitFor(t, "bootstrap", func() bool { return served.Load() != nil })
	if got := served.Load(); got.Status().Live != 4 || !got.Status().Follower || got.Status().Mutable {
		t.Fatalf("bootstrapped follower: %d polygons, follower=%v, mutable=%v",
			got.Status().Live, got.Status().Follower, got.Status().Mutable)
	}
	if _, err := served.Load().Insert(ctx, base[0]); err != act.ErrFollower {
		t.Fatalf("Insert on follower: %v, want ErrFollower", err)
	}
	if err := served.Load().Remove(ctx, 0); err != act.ErrFollower {
		t.Fatalf("Remove on follower: %v, want ErrFollower", err)
	}

	// assertState checks the follower against the acknowledged live set:
	// same polygon count, and a lookup at every center resolves presence
	// exactly as the primary acknowledged it.
	assertState := func(phase string) {
		t.Helper()
		fidx := served.Load()
		want := 0
		for _, alive := range liveSet {
			if alive {
				want++
			}
		}
		if got := fidx.Status().Live; got != want {
			t.Fatalf("%s: follower has %d polygons, want %d", phase, got, want)
		}
		for id, c := range centers {
			if got := hasID(fidx, c, id); got != liveSet[id] {
				t.Fatalf("%s: follower presence of polygon %d at %+v = %v, want %v",
					phase, id, c, got, liveSet[id])
			}
		}
	}

	insert := func(i int) {
		t.Helper()
		lat, lng := spot(i)
		id, err := idx.Insert(ctx, square(lat, lng, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		centers[id] = act.LatLng{Lat: lat, Lng: lng}
		liveSet[id] = true
	}
	remove := func(id uint32) {
		t.Helper()
		if err := idx.Remove(ctx, id); err != nil {
			t.Fatal(err)
		}
		liveSet[id] = false
	}
	catchUp := func(what string) {
		t.Helper()
		target := idx.Status().WAL.Seq
		waitFor(t, what, func() bool { return fol.Status().AppliedSeq >= target })
	}

	// Phase 1: the stream is cut after every single frame — the follower
	// reconnects at every record boundary. After each acknowledged mutation,
	// the follower must converge on exactly that prefix.
	next := 4
	for step := 0; step < 24; step++ {
		if step%4 == 3 {
			// Remove the most recently inserted still-live polygon.
			victim := uint32(next - 1)
			for !liveSet[victim] {
				victim--
			}
			remove(victim)
		} else {
			insert(next)
			next++
		}
		catchUp("boundary-cut catch-up")
		assertState("boundary cuts")
	}
	if fol.Status().Reconnects == 0 {
		t.Fatal("boundary cuts: follower never reconnected")
	}

	// Phase 2: cuts land mid-frame at a sweep of byte offsets; the follower
	// must discard torn tails and still converge.
	cut.setMode(cutBytes)
	for step := 0; step < 8; step++ {
		if step%4 == 3 {
			victim := uint32(next - 1)
			for !liveSet[victim] {
				victim--
			}
			remove(victim)
		} else {
			insert(next)
			next++
		}
	}
	catchUp("mid-frame-cut catch-up")
	assertState("mid-frame cuts")

	// Phase 3: rotation under a live stream. With cuts off, checkpoint the
	// primary while the follower is connected and caught up: the stream must
	// reopen the rotated log and keep serving — no re-bootstrap.
	cut.setMode(cutOff)
	insert(next)
	next++
	catchUp("pre-rotation catch-up")
	bootstrapsBefore := fol.Status().Bootstraps
	if err := idx.Checkpoint(ctx); err != nil {
		t.Fatalf("checkpoint under live stream: %v", err)
	}
	insert(next)
	next++
	catchUp("post-rotation catch-up")
	assertState("rotation under live stream")
	if got := fol.Status().Bootstraps; got != bootstrapsBefore {
		t.Fatalf("rotation under live stream re-bootstrapped: %d -> %d", bootstrapsBefore, got)
	}

	// Phase 4: the checkpoint outruns a disconnected follower. Gate the
	// stream, mutate and checkpoint so the log floor passes the follower's
	// position, then ungate: the resume must get 410 Gone and re-bootstrap
	// from the new snapshot — a fresh index, not a hole.
	cut.setMode(cutGate)
	waitFor(t, "stream teardown", func() bool { return !fol.Status().Connected })
	insert(next)
	next++
	remove(uint32(next - 1))
	insert(next)
	next++
	if err := idx.Checkpoint(ctx); err != nil {
		t.Fatalf("checkpoint while gated: %v", err)
	}
	insert(next) // a post-rotation tail record the new snapshot does not cover
	next++
	cut.setMode(cutOff)
	catchUp("re-bootstrap catch-up")
	assertState("checkpoint outran follower")
	if got := fol.Status().Bootstraps; got != bootstrapsBefore+1 {
		t.Fatalf("after gated checkpoint: %d bootstraps, want %d", got, bootstrapsBefore+1)
	}

	// Final: identical join pair counts on primary and follower, in both
	// modes, over points hitting every polygon ever seen plus misses.
	var pts []act.LatLng
	for _, c := range centers {
		pts = append(pts, c, act.LatLng{Lat: c.Lat + 0.25, Lng: c.Lng - 0.25})
	}
	assertJoinEqual(t, "after catch-up", idx, served.Load(), pts)
	if lag := fol.Status().Lag(); lag != 0 {
		t.Fatalf("follower lag %d after catch-up, want 0", lag)
	}
}
