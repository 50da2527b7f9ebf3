package replica_test

// Failover tests: deterministic promotion + fencing, bootstrap fault
// tolerance over an injected wire, and the seeded chaos property test —
// a primary whose disk dies mid-run, two followers on a flaky network,
// one promotion, and three properties asserted at the end: convergence
// (every replica of the new lineage is byte-equivalent under joins), no
// lost acks (everything the old primary acknowledged survives), and no
// split brain (the fenced old primary can neither serve replication nor
// acknowledge writes).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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

// hasAny reports whether a lookup at ll hits any polygon at all.
func hasAny(idx *act.Index, ll act.LatLng) bool {
	var res act.Result
	idx.Lookup(ll, act.Approximate, &res)
	return len(res.True)+len(res.Candidates) > 0
}

// assertJoinEqual fails unless a and b produce identical join pair counts
// over pts in both modes.
func assertJoinEqual(t *testing.T, phase string, a, b *act.Index, pts []act.LatLng) {
	t.Helper()
	for _, mode := range []act.JoinMode{act.Approximate, act.Exact} {
		ac, _, aerr := a.JoinContext(context.Background(), pts, mode, 1)
		bc, _, berr := b.JoinContext(context.Background(), pts, mode, 1)
		if aerr != nil || berr != nil {
			t.Fatalf("%s: %v join failed: %v / %v", phase, mode, aerr, berr)
		}
		if !slices.Equal(ac, bc) {
			t.Fatalf("%s: %v join counts diverge:\na: %v\nb: %v", phase, mode, ac, bc)
		}
	}
}

// spotAt places polygon i on the test diagonal.
func spotAt(i int) act.LatLng {
	return act.LatLng{Lat: 10 + 0.5*float64(i), Lng: 10 + 0.5*float64(i)}
}

func TestFailoverPromotion(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	walPath := filepath.Join(dir, "primary.wal")
	snapPath := filepath.Join(dir, "primary.snapshot")

	centers := map[uint32]act.LatLng{}
	var base []*act.Polygon
	for i := 0; i < 4; i++ {
		c := spotAt(i)
		base = append(base, square(c.Lat, c.Lng, 0.1))
		centers[uint32(i)] = c
	}
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
	srv := httptest.NewServer(mux)
	defer srv.Close()

	folDir := t.TempDir()
	var served act.Swappable
	fol := replica.NewFollower(srv.URL, folDir, &served)
	fol.BackoffMin, fol.BackoffMax = time.Millisecond, 20*time.Millisecond
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	runDone := make(chan struct{})
	go func() { defer close(runDone); fol.Run(runCtx) }()
	waitFor(t, "bootstrap", func() bool { return served.Load() != nil })

	// Grow the primary and catch the follower up to the full history.
	for i := 4; i < 10; i++ {
		c := spotAt(i)
		id, err := idx.Insert(ctx, square(c.Lat, c.Lng, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		centers[id] = c
	}
	if err := idx.Remove(ctx, 5); err != nil {
		t.Fatal(err)
	}
	delete(centers, 5)
	target := idx.Status().WAL.Seq
	waitFor(t, "catch-up", func() bool { return fol.Status().AppliedSeq >= target })

	promo, err := fol.Promote(ctx)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	<-runDone // Run returns once it sees the promoted index

	if promo.Epoch != 1 {
		t.Fatalf("promoted epoch %d, want 1", promo.Epoch)
	}
	nidx := promo.Index
	defer nidx.Close()
	if nidx.Status().Follower || !nidx.Status().Mutable {
		t.Fatalf("promoted index: follower=%v mutable=%v, want a mutable primary",
			nidx.Status().Follower, nidx.Status().Mutable)
	}
	if got := nidx.Status().WAL.Epoch; got != 1 {
		t.Fatalf("WAL epoch %d, want 1", got)
	}
	if got := nidx.Status().Live; got != len(centers) {
		t.Fatalf("promoted index has %d polygons, want %d", got, len(centers))
	}
	for id, c := range centers {
		if !hasID(nidx, c, id) {
			t.Fatalf("acknowledged polygon %d missing after promotion (lost ack)", id)
		}
	}
	if hasAny(nidx, spotAt(5)) {
		t.Fatal("removed polygon resurrected by promotion")
	}

	// The promoted index owns its durability pair in the follower's
	// directory, and the new epoch is durable: it is in the promoted log's
	// header on disk.
	if got, want := nidx.Status().WAL.SnapshotPath, filepath.Join(folDir, "follower.snapshot"); got != want {
		t.Fatalf("promoted snapshot path %q, want %q", got, want)
	}
	lf, err := os.Open(filepath.Join(folDir, "promoted.wal"))
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := wal.ReadHeader(lf)
	lf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != 2 || hdr.Epoch != 1 || hdr.BaseSeq != promo.Seq {
		t.Fatalf("promoted log header %+v, want v2 epoch 1 baseSeq %d", hdr, promo.Seq)
	}

	// The promoted index accepts writes.
	c10 := spotAt(10)
	id, err := nidx.Insert(ctx, square(c10.Lat, c10.Lng, 0.1))
	if err != nil {
		t.Fatalf("insert on promoted index: %v", err)
	}
	centers[id] = c10

	// Promotion is one-way: neither a second Promote nor a new Run works.
	if _, err := fol.Promote(ctx); err == nil {
		t.Fatal("second Promote succeeded")
	}
	if err := fol.Run(ctx); err == nil {
		t.Fatal("Run on a promoted follower succeeded")
	}

	// The old primary fences itself the moment the new epoch reaches it:
	// 412 on every replication endpoint, ErrFenced on every mutation.
	for _, path := range []string{replica.SnapshotPath, replica.StreamPath} {
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(replica.HeaderEpoch, strconv.FormatUint(promo.Epoch, 10))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusPreconditionFailed {
			t.Fatalf("stale primary %s: status %d, want 412", path, resp.StatusCode)
		}
		if got := resp.Header.Get(replica.HeaderEpoch); got != "1" {
			t.Fatalf("stale primary %s announces epoch %q, want 1", path, got)
		}
	}
	if e := idx.Status().FencedAt; e != 1 {
		t.Fatalf("old primary fenced at %d, want 1", e)
	}
	if _, err := idx.Insert(ctx, base[0]); !errors.Is(err, act.ErrFenced) {
		t.Fatalf("insert on fenced primary: %v, want ErrFenced", err)
	}
	if err := idx.Remove(ctx, 0); !errors.Is(err, act.ErrFenced) {
		t.Fatalf("remove on fenced primary: %v, want ErrFenced", err)
	}

	// The new primary serves the next generation of followers, which learn
	// the bumped epoch from the wire.
	np := replica.NewPrimary(nidx)
	np.Heartbeat = 50 * time.Millisecond
	nmux := http.NewServeMux()
	np.Mount(nmux)
	nsrv := httptest.NewServer(nmux)
	defer nsrv.Close()

	var servedB act.Swappable
	folB := replica.NewFollower(nsrv.URL, t.TempDir(), &servedB)
	folB.BackoffMin, folB.BackoffMax = time.Millisecond, 20*time.Millisecond
	bCtx, bCancel := context.WithCancel(ctx)
	bDone := make(chan struct{})
	go func() { defer close(bDone); folB.Run(bCtx) }()
	defer func() {
		bCancel()
		<-bDone
		if ix := servedB.Load(); ix != nil {
			ix.Close()
		}
	}()
	target2 := nidx.Status().WAL.Seq
	waitFor(t, "second-generation catch-up", func() bool { return folB.Status().AppliedSeq >= target2 })
	if got := folB.Status().Epoch; got != promo.Epoch {
		t.Fatalf("second-generation follower learned epoch %d, want %d", got, promo.Epoch)
	}

	var pts []act.LatLng
	for _, c := range centers {
		pts = append(pts, c, act.LatLng{Lat: c.Lat + 0.25, Lng: c.Lng - 0.25})
	}
	assertJoinEqual(t, "second generation", nidx, servedB.Load(), pts)
}

// TestPromoteOneWay: the promotion drain shares the replication loop's
// stream reader, but a 410 there only ends the drain — the index being
// promoted is kept, not discarded for a re-bootstrap. Once promoted, the
// index's role alone refuses a second Promote, and Run returns at once
// instead of streaming into a primary.
func TestPromoteOneWay(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	idx, err := act.New([]*act.Polygon{square(10, 10, 0.1)},
		act.WithPrecision(250),
		act.WithDeltaThreshold(-1),
		act.WithWAL(act.WALConfig{Path: filepath.Join(dir, "primary.wal"), SnapshotPath: filepath.Join(dir, "primary.snapshot")}))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	primary := replica.NewPrimary(idx)
	primary.Heartbeat = 20 * time.Millisecond
	mux := http.NewServeMux()
	primary.Mount(mux)
	var gone atomic.Bool // set: new stream requests answer 410
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == replica.StreamPath && gone.Load() {
			http.Error(w, "below the checkpoint floor", http.StatusGone)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()

	var served act.Swappable
	fol := replica.NewFollower(srv.URL, t.TempDir(), &served)
	fol.BackoffMin, fol.BackoffMax = time.Millisecond, 20*time.Millisecond
	runDone := make(chan struct{})
	go func() { defer close(runDone); fol.Run(ctx) }()
	id, err := idx.Insert(ctx, square(11, 11, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	target := idx.Status().WAL.Seq
	waitFor(t, "catch-up", func() bool { return fol.Status().AppliedSeq >= target })
	fidx := served.Load()
	defer fidx.Close()

	gone.Store(true)
	promo, err := fol.Promote(ctx)
	if err != nil {
		t.Fatalf("promote with a 410 on the drain: %v", err)
	}
	<-runDone
	if promo.Index != fidx || !hasID(promo.Index, act.LatLng{Lat: 11, Lng: 11}, id) {
		t.Fatal("promotion did not keep the caught-up index")
	}
	if _, err := fol.Promote(ctx); err == nil || !strings.Contains(err.Error(), "promoted") {
		t.Fatalf("second Promote: %v, want a refusal", err)
	}
	runCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := fol.Run(runCtx); err == nil || runCtx.Err() != nil {
		t.Fatalf("Run after Promote: %v, want an immediate refusal", err)
	}
	if !promo.Index.Status().Mutable || promo.Index.Status().Follower {
		t.Fatal("refused calls changed the promoted index's role")
	}
}

// TestPromoteContinuesSequence: a follower bootstrapped at the primary's
// seq N that saw no further record promotes at N, not at its index's own 0.
// The promoted log then gives its next insert N+1, and a second follower
// that was at N when its route was re-pointed at the new primary resumes
// there and receives that insert.
func TestPromoteContinuesSequence(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	var base []*act.Polygon
	for i := 0; i < 4; i++ {
		c := spotAt(i)
		base = append(base, square(c.Lat, c.Lng, 0.1))
	}
	idx, err := act.New(base,
		act.WithPrecision(250),
		act.WithDeltaThreshold(-1),
		act.WithWAL(act.WALConfig{Path: filepath.Join(dir, "primary.wal"), SnapshotPath: filepath.Join(dir, "primary.snapshot")}))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	for i := 4; i < 7; i++ {
		c := spotAt(i)
		if _, err := idx.Insert(ctx, square(c.Lat, c.Lng, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	n := idx.Status().WAL.Seq
	mux := http.NewServeMux()
	replica.NewPrimary(idx).Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	// Follower B reaches its primary through a route a failover re-points.
	var route atomic.Pointer[http.ServeMux]
	route.Store(mux)
	bsrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route.Load().ServeHTTP(w, r)
	}))
	defer bsrv.Close()

	var servedA, servedB act.Swappable
	folA := replica.NewFollower(srv.URL, t.TempDir(), &servedA)
	folB := replica.NewFollower(bsrv.URL, t.TempDir(), &servedB)
	for _, fol := range []*replica.Follower{folA, folB} {
		if err := fol.Bootstrap(ctx); err != nil {
			t.Fatal(err)
		}
	}
	defer servedA.Load().Close()
	defer servedB.Load().Close()
	if got := folA.Status().AppliedSeq; got != n {
		t.Fatalf("bootstrapped at seq %d, want the snapshot's floor %d", got, n)
	}

	promo, err := folA.Promote(ctx)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if promo.Seq != n || promo.Index.Status().Seq != n {
		t.Fatalf("promoted at seq %d (index at %d), want %d", promo.Seq, promo.Index.Status().Seq, n)
	}
	c := spotAt(7)
	id, err := promo.Index.Insert(ctx, square(c.Lat, c.Lng, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if got := promo.Index.Status().WAL.Seq; got != n+1 {
		t.Fatalf("first insert after promotion logged seq %d, want %d", got, n+1)
	}

	nmux := http.NewServeMux()
	replica.NewPrimary(promo.Index).Mount(nmux)
	route.Store(nmux)
	folB.BackoffMin, folB.BackoffMax = time.Millisecond, 20*time.Millisecond
	runCtx, cancel := context.WithCancel(ctx)
	runDone := make(chan struct{})
	go func() { defer close(runDone); folB.Run(runCtx) }()
	defer func() { cancel(); <-runDone }()
	waitFor(t, "re-pointed follower catch-up", func() bool { return folB.Status().AppliedSeq >= n+1 })
	if st := folB.Status(); st.LastError != "" || st.Bootstraps != 1 {
		t.Fatalf("re-pointed follower: last error %q, %d bootstraps, want a clean resume", st.LastError, st.Bootstraps)
	}
	if !hasID(servedB.Load(), c, id) {
		t.Fatal("re-pointed follower lacks the promoted primary's first insert")
	}
}

// TestRefusedPromotionKeepsStreaming: a promotion refused because the
// primary announced more than the follower holds only pauses the stream;
// Run resumes on its own and applies what the primary logs next.
func TestRefusedPromotionKeepsStreaming(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	idx, err := act.New([]*act.Polygon{square(10, 10, 0.1)},
		act.WithPrecision(250),
		act.WithDeltaThreshold(-1),
		act.WithWAL(act.WALConfig{Path: filepath.Join(dir, "primary.wal"), SnapshotPath: filepath.Join(dir, "primary.snapshot")}))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	primary := replica.NewPrimary(idx)
	primary.Heartbeat = 20 * time.Millisecond
	mux := http.NewServeMux()
	primary.Mount(mux)
	var lie atomic.Bool // set: the next stream announces seq 100 and hangs up
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == replica.StreamPath && lie.CompareAndSwap(true, false) {
			w.Write(wal.EncodeFrame(wal.Record{Type: wal.TypeCheckpoint, Seq: 100}))
			return
		}
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()

	var served act.Swappable
	fol := replica.NewFollower(srv.URL, t.TempDir(), &served)
	fol.BackoffMin, fol.BackoffMax = time.Millisecond, 20*time.Millisecond
	runCtx, cancel := context.WithCancel(ctx)
	runDone := make(chan struct{})
	go func() { defer close(runDone); fol.Run(runCtx) }()
	defer func() {
		cancel()
		<-runDone
		served.Load().Close()
	}()
	waitFor(t, "stream", func() bool { return fol.Status().Connected })

	lie.Store(true)
	if _, err := fol.Promote(ctx); err == nil || !strings.Contains(err.Error(), "behind") {
		t.Fatalf("promote behind an announced seq 100: %v, want a refusal", err)
	}
	if !served.Load().Status().Follower {
		t.Fatal("refused promotion changed the index's role")
	}
	id, err := idx.Insert(ctx, square(11, 11, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	target := idx.Status().WAL.Seq
	waitFor(t, "streaming after the refusal", func() bool { return fol.Status().AppliedSeq >= target })
	if !hasID(served.Load(), act.LatLng{Lat: 11, Lng: 11}, id) {
		t.Fatal("insert after the refusal not served")
	}
	waitFor(t, "connected after the refusal", func() bool { return fol.Status().Connected })
}

// newLoggedPrimary builds a WAL-backed primary index in dir holding
// polygons at the first n test spots, each past the base one inserted and
// so logged, and checkpoints it: its floor and head are both n-1.
func newLoggedPrimary(t *testing.T, dir string, n int) *act.Index {
	t.Helper()
	idx, err := act.New([]*act.Polygon{square(spotAt(0).Lat, spotAt(0).Lng, 0.1)},
		act.WithPrecision(250),
		act.WithDeltaThreshold(-1),
		act.WithWAL(act.WALConfig{Path: filepath.Join(dir, "primary.wal"), SnapshotPath: filepath.Join(dir, "primary.snapshot")}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if _, err := idx.Insert(context.Background(), square(spotAt(i).Lat, spotAt(i).Lng, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestPromoteRefusedBelowFloor: a follower whose resume point fell below
// the primary's checkpoint floor is told so by a 410, and the primary dies
// before the re-bootstrap. The floor counts as announced: the follower,
// still serving its old index, is refused promotion (it lacks records up
// to the floor, and would reuse their sequence numbers).
func TestPromoteRefusedBelowFloor(t *testing.T) {
	ctx := context.Background()
	idx := newLoggedPrimary(t, t.TempDir(), 3)
	defer idx.Close()
	mux := http.NewServeMux()
	replica.NewPrimary(idx).Mount(mux)
	var dying, dead atomic.Bool // dying: the next stream request is the last answered
	var refusedBootstraps atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() {
			if r.URL.Path == replica.SnapshotPath {
				refusedBootstraps.Add(1)
			}
			http.Error(w, "primary down", http.StatusServiceUnavailable)
			return
		}
		if r.URL.Path == replica.StreamPath && dying.Load() {
			defer dead.Store(true)
		}
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()

	var served act.Swappable
	fol := replica.NewFollower(srv.URL, t.TempDir(), &served)
	fol.BackoffMin, fol.BackoffMax = time.Millisecond, 20*time.Millisecond
	if err := fol.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	defer served.Load().Close()
	for i := 3; i < 5; i++ {
		if _, err := idx.Insert(ctx, square(spotAt(i).Lat, spotAt(i).Lng, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	floor := idx.Status().WAL.BaseSeq

	dying.Store(true)
	runCtx, cancel := context.WithCancel(ctx)
	runDone := make(chan struct{})
	go func() { defer close(runDone); fol.Run(runCtx) }()
	defer func() { cancel(); <-runDone }()
	waitFor(t, "the 410 and a failed re-bootstrap", func() bool { return refusedBootstraps.Load() > 0 })
	if _, err := fol.Promote(ctx); err == nil || !strings.Contains(err.Error(), "behind") {
		t.Fatalf("promote below the floor %d with the primary gone: %v, want a refusal", floor, err)
	}
	if !served.Load().Status().Follower {
		t.Fatal("refused promotion changed the index's role")
	}
}

// TestPromoteRefusedBeforeSnapshotHead: a follower bootstrapped from a
// snapshot older than the primary's head learns the head from the snapshot
// response. Until the stream brings it there, promotion is refused; once
// it has, the promotion continues from the head.
func TestPromoteRefusedBeforeSnapshotHead(t *testing.T) {
	ctx := context.Background()
	idx := newLoggedPrimary(t, t.TempDir(), 3)
	defer idx.Close()
	for i := 3; i < 5; i++ {
		if _, err := idx.Insert(ctx, square(spotAt(i).Lat, spotAt(i).Lng, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	head := idx.Status().WAL.Seq
	mux := http.NewServeMux()
	replica.NewPrimary(idx).Mount(mux)
	var down atomic.Bool // set: the stream endpoint is unreachable
	down.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == replica.StreamPath && down.Load() {
			http.Error(w, "primary down", http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()

	var served act.Swappable
	fol := replica.NewFollower(srv.URL, t.TempDir(), &served)
	if err := fol.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	defer served.Load().Close()
	if st := fol.Status(); st.AppliedSeq >= head || st.PrimarySeq != head {
		t.Fatalf("bootstrapped at applied %d, announced %d; want below and at the head %d", st.AppliedSeq, st.PrimarySeq, head)
	}
	if _, err := fol.Promote(ctx); err == nil || !strings.Contains(err.Error(), "behind") {
		t.Fatalf("promote before streaming to the head %d: %v, want a refusal", head, err)
	}
	down.Store(false)
	promo, err := fol.Promote(ctx)
	if err != nil {
		t.Fatalf("promote after the drain reached the head: %v", err)
	}
	if promo.Seq != head || !hasAny(promo.Index, spotAt(4)) {
		t.Fatalf("promoted at seq %d, want the head %d with its records", promo.Seq, head)
	}
}

// TestFollowerRefusesStalePrimary: a primary announcing a lower epoch than
// the follower has learned is a resurrected, superseded primary — nothing
// from it may be applied.
func TestFollowerRefusesStalePrimary(t *testing.T) {
	calls := 0
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			// Announce epoch 5 but omit the base-seq header: the bootstrap
			// fails after the epoch is learned, publishing nothing.
			w.Header().Set(replica.HeaderEpoch, "5")
			return
		}
		w.Header().Set(replica.HeaderEpoch, "3")
	}))
	defer stub.Close()

	ctx := context.Background()
	var served act.Swappable
	fol := replica.NewFollower(stub.URL, t.TempDir(), &served)
	if err := fol.Bootstrap(ctx); err == nil {
		t.Fatal("bootstrap without a base-seq header succeeded")
	}
	if got := fol.Status().Epoch; got != 5 {
		t.Fatalf("learned epoch %d, want 5", got)
	}
	err := fol.Bootstrap(ctx)
	if err == nil || !strings.Contains(err.Error(), "stale primary") {
		t.Fatalf("bootstrap from a stale primary: %v, want a stale-primary refusal", err)
	}
	if served.Load() != nil {
		t.Fatal("stale primary's snapshot was published")
	}
}

// TestBootstrapFaultTolerance: a snapshot download that is cut, truncated,
// or corrupted in flight publishes nothing; the retry over the healed wire
// succeeds with the same client.
func TestBootstrapFaultTolerance(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	walPath := filepath.Join(dir, "primary.wal")
	snapPath := filepath.Join(dir, "primary.snapshot")
	var base []*act.Polygon
	for i := 0; i < 8; i++ {
		c := spotAt(i)
		base = append(base, square(c.Lat, c.Lng, 0.1))
	}
	idx, err := act.New(base,
		act.WithPrecision(250),
		act.WithDeltaThreshold(-1),
		act.WithWAL(act.WALConfig{Path: walPath, SnapshotPath: snapPath}))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if err := idx.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	primary := replica.NewPrimary(idx)
	mux := http.NewServeMux()
	primary.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cases := []struct {
		name  string
		sched func() *fault.Schedule
		want  string
	}{
		// Connection severed mid-body: io.Copy surfaces the cut.
		{"cut", func() *fault.Schedule {
			return fault.NewSchedule().Rule(fault.OpBody, 1, fault.Decision{Err: syscall.ECONNRESET, Keep: 64})
		}, "downloading snapshot"},
		// Body ends early but cleanly: the Content-Length check catches it.
		{"truncated", func() *fault.Schedule {
			return fault.NewSchedule().Rule(fault.OpBody, 1, fault.Decision{Err: io.EOF, Keep: 64})
		}, "truncated"},
		// One byte flipped in flight, length preserved: only the snapshot
		// format's own validation can catch it, and it must.
		{"corrupt", func() *fault.Schedule {
			return fault.NewSchedule().FlipNth(fault.OpBody, 1, 2)
		}, "opening snapshot"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.sched()
			var served act.Swappable
			fol := replica.NewFollower(srv.URL, t.TempDir(), &served)
			fol.Client = &http.Client{Transport: &fault.Transport{S: s}}
			err := fol.Bootstrap(ctx)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("bootstrap under %s fault: %v, want error containing %q", tc.name, err, tc.want)
			}
			if served.Load() != nil {
				t.Fatal("fault-injected bootstrap published an index")
			}
			if s.Injected() == 0 {
				t.Fatal("schedule injected nothing")
			}
			// The fault was one-shot; the retry succeeds over the same client.
			if err := fol.Bootstrap(ctx); err != nil {
				t.Fatalf("clean retry: %v", err)
			}
			got := served.Load()
			if got == nil || got.Status().Live != 8 {
				t.Fatalf("retry bootstrapped %v, want an 8-polygon index", got)
			}
			t.Cleanup(func() { got.Close() })
		})
	}
}

// TestChaosFailoverProperty is the seeded chaos run. Every seed replays the
// same faults (fault.Seeded), so a failing seed is a deterministic repro.
func TestChaosFailoverProperty(t *testing.T) {
	seeds := []uint64{0xACCE55, 7, 23}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { chaosFailover(t, seed) })
	}
}

func chaosFailover(t *testing.T, seed uint64) {
	ctx := context.Background()
	dir := t.TempDir()
	walPath := filepath.Join(dir, "primary.wal")
	snapPath := filepath.Join(dir, "primary.snapshot")

	// The primary's disk dies at a seed-chosen fsync and stays dead. Syncs
	// 1–6 are the log header's and the healthy checkpoint's below (the
	// snapshot's data and directory, then the rotation's three), so the
	// fault lands on the 8th to 20th mutation.
	walSched := fault.NewSchedule().FailFrom(fault.OpSync, 14+int(seed%13), syscall.EIO)

	centers := map[uint32]act.LatLng{}
	liveSet := map[uint32]bool{}
	var base []*act.Polygon
	for i := 0; i < 4; i++ {
		c := spotAt(i)
		base = append(base, square(c.Lat, c.Lng, 0.1))
		centers[uint32(i)] = c
		liveSet[uint32(i)] = true
	}
	idx, err := act.New(base,
		act.WithPrecision(250),
		act.WithDeltaThreshold(-1),
		act.WithWAL(act.WALConfig{Path: walPath, SnapshotPath: snapPath, FS: fault.FS{S: walSched}}))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	// Snapshot now, while the disk is healthy, so bootstraps never have to
	// force a checkpoint through the dying filesystem.
	if err := idx.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}

	primary := replica.NewPrimary(idx)
	primary.Heartbeat = 25 * time.Millisecond
	mux := http.NewServeMux()
	primary.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Followers live on a flaky wire: requests fail outright and stream
	// bodies are cut at random offsets, all drawn from the seed.
	startFollower := func(seed uint64, url string) (*replica.Follower, *act.Swappable, context.CancelFunc, chan struct{}) {
		s := fault.Seeded(seed).
			Probabilistic(fault.OpRoundTrip, 0.1, fault.Decision{Err: syscall.ECONNREFUSED}).
			Probabilistic(fault.OpBody, 0.25, fault.Decision{Err: syscall.ECONNRESET, Keep: -1})
		served := &act.Swappable{}
		fol := replica.NewFollower(url, t.TempDir(), served)
		fol.Client = &http.Client{Transport: &fault.Transport{S: s}}
		fol.BackoffMin, fol.BackoffMax = time.Millisecond, 20*time.Millisecond
		runCtx, cancel := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() { defer close(done); fol.Run(runCtx) }()
		return fol, served, cancel, done
	}
	folA, aServed, aCancel, aDone := startFollower(seed+1, srv.URL)
	folB, bServed, bCancel, bDone := startFollower(seed+2, srv.URL)
	defer func() {
		aCancel()
		<-aDone
		bCancel()
		<-bDone
		for _, served := range []*act.Swappable{aServed, bServed} {
			if ix := served.Load(); ix != nil {
				ix.Close()
			}
		}
	}()

	// Mutate until the disk failure surfaces. Removes stay in the early,
	// guaranteed-healthy region, so the mutation that trips the log is
	// always an insert — its frame is fully written (only the fsync failed),
	// never acknowledged, and will replicate: the standard torn-ack case.
	next := 4
	var tripErr error
	for step := 0; step < 60; step++ {
		if step == 2 || step == 4 {
			victim := uint32(next - 1)
			for !liveSet[victim] {
				victim--
			}
			if err := idx.Remove(ctx, victim); err != nil {
				t.Fatalf("remove before the fault window: %v", err)
			}
			liveSet[victim] = false
			continue
		}
		c := spotAt(next)
		id, err := idx.Insert(ctx, square(c.Lat, c.Lng, 0.1))
		if err != nil {
			tripErr = err
			break
		}
		centers[id] = c
		liveSet[id] = true
		next++
	}
	if tripErr == nil {
		t.Fatal("the seeded disk fault never fired")
	}
	if !errors.Is(tripErr, act.ErrWALFailed) || !errors.Is(tripErr, syscall.EIO) {
		t.Fatalf("tripping insert: %v, want ErrWALFailed wrapping EIO", tripErr)
	}
	if idx.Status().WAL.Failed == "" {
		t.Fatal("WALStats.Failed empty after the disk died")
	}
	// Degraded, not down: mutations are refused but reads and the stream
	// keep serving.
	if err := idx.Remove(ctx, 0); !errors.Is(err, act.ErrWALFailed) {
		t.Fatalf("remove on a failed log: %v, want ErrWALFailed", err)
	}
	// Seq includes the tripping insert's frame — written, streamed, never
	// acknowledged. Followers must still drain everything on disk.
	ackedSeq := idx.Status().WAL.Seq
	waitFor(t, "follower A draining the failed primary", func() bool { return folA.Status().AppliedSeq >= ackedSeq })
	waitFor(t, "follower B draining the failed primary", func() bool { return folB.Status().AppliedSeq >= ackedSeq })

	promo, err := folA.Promote(ctx)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	<-aDone
	if promo.Epoch != 1 {
		t.Fatalf("promoted epoch %d, want 1", promo.Epoch)
	}
	// No lost acks: the promotion point covers everything the old primary
	// acknowledged (and the one torn-ack frame).
	if promo.Seq < ackedSeq {
		t.Fatalf("no-lost-acks violated: promoted at seq %d, old primary reached %d", promo.Seq, ackedSeq)
	}

	// The acknowledged state — plus the one written-but-unacknowledged
	// insert — must be exactly what the new lineage serves.
	assertFailoverState := func(phase string, fidx *act.Index) {
		t.Helper()
		want := 1 // the torn-ack insert
		for _, alive := range liveSet {
			if alive {
				want++
			}
		}
		if got := fidx.Status().Live; got != want {
			t.Fatalf("%s: %d polygons, want %d (acked live set + torn-ack frame)", phase, got, want)
		}
		for id, c := range centers {
			if got := hasID(fidx, c, id); got != liveSet[id] {
				t.Fatalf("%s: presence of acked polygon %d = %v, want %v", phase, id, got, liveSet[id])
			}
		}
		if !hasAny(fidx, spotAt(next)) {
			t.Fatalf("%s: the torn-ack insert is missing", phase)
		}
	}
	assertFailoverState("promoted index", promo.Index)

	// No split brain: the first replication exchange carrying the new epoch
	// fences the old primary for good.
	req, err := http.NewRequest(http.MethodGet, srv.URL+replica.StreamPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(replica.HeaderEpoch, strconv.FormatUint(promo.Epoch, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("stale primary stream: status %d, want 412", resp.StatusCode)
	}
	if _, err := idx.Insert(ctx, base[0]); !errors.Is(err, act.ErrFenced) {
		t.Fatalf("insert on fenced primary: %v, want ErrFenced", err)
	}

	// Re-point the second follower at the new primary (a fresh follower, as
	// a restart with a new primary URL would be) and keep writing.
	bCancel()
	<-bDone

	np := replica.NewPrimary(promo.Index)
	np.Heartbeat = 25 * time.Millisecond
	nmux := http.NewServeMux()
	np.Mount(nmux)
	nsrv := httptest.NewServer(nmux)
	defer nsrv.Close()

	for i := 0; i < 5; i++ {
		c := spotAt(next + 1 + i)
		id, err := promo.Index.Insert(ctx, square(c.Lat, c.Lng, 0.1))
		if err != nil {
			t.Fatalf("insert on the new primary: %v", err)
		}
		centers[id] = c
		liveSet[id] = true
	}

	folB2, b2Served, b2Cancel, b2Done := startFollower(seed+3, nsrv.URL)
	defer func() {
		b2Cancel()
		<-b2Done
		if ix := b2Served.Load(); ix != nil {
			ix.Close()
		}
	}()
	target := promo.Index.Status().WAL.Seq
	waitFor(t, "re-pointed follower catch-up", func() bool { return folB2.Status().AppliedSeq >= target })
	if got := folB2.Status().Epoch; got != promo.Epoch {
		t.Fatalf("re-pointed follower learned epoch %d, want %d", got, promo.Epoch)
	}
	assertFailoverState("re-pointed follower", b2Served.Load())

	// Convergence: identical join pair counts across the whole new lineage.
	var pts []act.LatLng
	for _, c := range centers {
		pts = append(pts, c, act.LatLng{Lat: c.Lat + 0.25, Lng: c.Lng - 0.25})
	}
	pts = append(pts, spotAt(next))
	assertJoinEqual(t, "chaos convergence", promo.Index, b2Served.Load(), pts)

	if walSched.Injected() == 0 {
		t.Fatal("disk schedule injected nothing")
	}
}
