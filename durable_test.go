package act_test

// Crash-recovery tests for the WAL-backed durability subsystem: under
// mutation schedules with simulated crashes — including a torn final
// record cut at every byte boundary — replaying the log (onto a fresh
// build or onto a checkpoint snapshot via Recover) must reproduce exactly
// the pre-crash epoch, verified against a from-scratch rebuild over the
// surviving polygon set with the same harness the delta-overlay property
// tests use.

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/fault"
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

// hasID reports whether a lookup at ll returns id (as true hit or
// candidate).
func hasID(idx *act.Index, ll act.LatLng, id uint32) bool {
	var res act.Result
	idx.Lookup(ll, act.Approximate, &res)
	return slices.Contains(res.True, id) || slices.Contains(res.Candidates, id)
}

// TestWALReplayOnNew is the build-from-polygons restart story: mutations
// logged by one process replay onto a fresh New with the same base set and
// the same log, reproducing the pre-crash state exactly.
func TestWALReplayOnNew(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "delta.wal")
	rng := rand.New(rand.NewSource(71))
	pool := randPolygonSet(rng)
	for len(pool) < 8 {
		pool = append(pool, randPolygonSet(rng)...)
	}
	base := pool[:4]
	pts := randPoints(rng, pool, 60)
	ctx := context.Background()

	build := func() *act.Index {
		idx, err := act.New(base,
			act.WithPrecision(250),
			act.WithDeltaThreshold(-1),
			act.WithWAL(act.WALConfig{Path: walPath}))
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}

	idx := build()
	if ws := idx.Status().WAL; !ws.Enabled || ws.RecoveredRecords != 0 {
		t.Fatalf("fresh WAL stats: %+v", ws)
	}
	ls := &liveSet{polys: map[uint32]*act.Polygon{}}
	for i, p := range base {
		ls.polys[uint32(i)] = p
	}
	for _, p := range pool[4:7] {
		id, err := idx.Insert(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		ls.polys[id] = p
	}
	if err := idx.Remove(ctx, 1); err != nil {
		t.Fatal(err)
	}
	delete(ls.polys, 1)
	preCrash := idx.Status().WAL
	if preCrash.Seq != 4 || preCrash.Bytes <= 16 {
		t.Fatalf("WAL stats before crash: %+v", preCrash)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": same polygons, same log.
	idx2 := build()
	defer idx2.Close()
	ws := idx2.Status().WAL
	if ws.RecoveredRecords != 4 {
		t.Fatalf("recovered %d records, want 4", ws.RecoveredRecords)
	}
	if ws.Seq != preCrash.Seq {
		t.Fatalf("recovered seq %d, want %d", ws.Seq, preCrash.Seq)
	}
	if idx2.Status().Live != len(ls.polys) {
		t.Fatalf("recovered %d polygons, want %d", idx2.Status().Live, len(ls.polys))
	}
	checkDeltaEquivalence(t, idx2, ls, pts, 250, 0)

	// The replayed index keeps mutating with non-colliding ids and stays
	// recoverable across another cycle.
	id, err := idx2.Insert(ctx, pool[7])
	if err != nil {
		t.Fatal(err)
	}
	if int(id) != 7 {
		t.Fatalf("post-replay insert got id %d, want 7", id)
	}
	ls.polys[id] = pool[7]
	idx2.Close()

	idx3 := build()
	defer idx3.Close()
	if idx3.Status().WAL.RecoveredRecords != 5 {
		t.Fatalf("second cycle recovered %d records, want 5", idx3.Status().WAL.RecoveredRecords)
	}
	checkDeltaEquivalence(t, idx3, ls, pts, 250, 1)
}

// TestRecoverCheckpointCycle drives the full checkpoint + log loop: compact
// writes the snapshot and truncates the log, post-checkpoint mutations
// accumulate in the log tail, and Recover — without the source polygons —
// reproduces the pre-crash state from snapshot + tail. Recovered indexes
// mutate durably AND compact (via the epoch rebuild), so crash/recover
// cycles compose without the log ever growing unbounded.
func TestRecoverCheckpointCycle(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "delta.wal")
	snapPath := filepath.Join(dir, "index.act")
	rng := rand.New(rand.NewSource(72))
	pool := randPolygonSet(rng)
	for len(pool) < 10 {
		pool = append(pool, randPolygonSet(rng)...)
	}
	base := pool[:4]
	pts := randPoints(rng, pool, 60)
	ctx := context.Background()

	idx, err := act.New(base,
		act.WithPrecision(250),
		act.WithDeltaThreshold(-1),
		act.WithWAL(act.WALConfig{Path: walPath, SnapshotPath: snapPath}))
	if err != nil {
		t.Fatal(err)
	}
	ls := &liveSet{polys: map[uint32]*act.Polygon{}}
	for i, p := range base {
		ls.polys[uint32(i)] = p
	}
	for _, p := range pool[4:7] {
		id, err := idx.Insert(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		ls.polys[id] = p
	}
	if err := idx.Remove(ctx, 2); err != nil {
		t.Fatal(err)
	}
	delete(ls.polys, 2)
	grown := idx.Status().WAL.Bytes

	// Checkpoint: snapshot written, log truncated to the residual.
	if err := idx.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	ws := idx.Status().WAL
	if ws.Checkpoints != 1 || ws.BaseSeq != ws.Seq || ws.Bytes >= grown {
		t.Fatalf("WAL stats after checkpoint: %+v (pre-checkpoint bytes %d)", ws, grown)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("checkpoint snapshot missing: %v", err)
	}
	// The snapshot is a regular index file (v4 here: id 2 is a hole).
	snap, err := act.OpenIndex(snapPath)
	if err != nil {
		t.Fatalf("OpenIndex on checkpoint snapshot: %v", err)
	}
	if snap.Status().Live != len(ls.polys) {
		t.Fatalf("snapshot has %d polygons, want %d", snap.Status().Live, len(ls.polys))
	}
	snap.Close()

	// Post-checkpoint churn, then crash (no Close — the files hold exactly
	// what SyncAlways forced to disk).
	id, err := idx.Insert(ctx, pool[7])
	if err != nil {
		t.Fatal(err)
	}
	ls.polys[id] = pool[7]
	if err := idx.Remove(ctx, 0); err != nil {
		t.Fatal(err)
	}
	delete(ls.polys, 0)

	// -1: rec is abandoned un-Closed below (the second simulated crash), so
	// a background auto-compaction checkpointing into dir would race the
	// TempDir cleanup.
	rec, err := act.Recover(snapPath, walPath, act.WithDeltaThreshold(-1))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rec.Status().Mutable {
		t.Fatal("recovered index is not mutable")
	}
	if got := rec.Status().WAL.RecoveredRecords; got != 2 {
		t.Fatalf("Recover replayed %d records, want 2", got)
	}
	if rec.Status().Live != len(ls.polys) {
		t.Fatalf("recovered %d polygons, want %d", rec.Status().Live, len(ls.polys))
	}
	checkDeltaEquivalence(t, rec, ls, pts, 250, 0)

	// A recovered index has no sources, but compaction works anyway: the
	// epoch path rebuilds from base cells + delta coverings, writes a fresh
	// checkpoint snapshot, and rotates the log — the recovered process is a
	// first-class durable primary, not a read-mostly stopgap.
	preCompact := rec.Status().WAL
	if err := rec.Compact(ctx); err != nil {
		t.Fatalf("Compact on recovered index: %v", err)
	}
	if ds := rec.Status(); ds.DeltaPolygons+ds.Tombstones != 0 || ds.Compactions != 1 {
		t.Fatalf("delta stats after recovered compaction: %+v", ds)
	}
	recWS := rec.Status().WAL
	if recWS.Checkpoints != preCompact.Checkpoints+1 || recWS.BaseSeq != recWS.Seq {
		t.Fatalf("WAL stats after recovered compaction: %+v (before: %+v)", recWS, preCompact)
	}
	if rec.Status().Live != len(ls.polys) {
		t.Fatalf("compacted recovered index has %d polygons, want %d", rec.Status().Live, len(ls.polys))
	}
	checkDeltaEquivalence(t, rec, ls, pts, 250, 2)
	id2, err := rec.Insert(ctx, pool[8])
	if err != nil {
		t.Fatalf("Insert on recovered index: %v", err)
	}
	ls.polys[id2] = pool[8]
	if err := rec.Remove(ctx, id); err != nil {
		t.Fatalf("Remove on recovered index: %v", err)
	}
	delete(ls.polys, id)

	// Second crash/recover cycle composes on the same snapshot + log.
	rec2, err := act.Recover(snapPath, walPath, act.WithDeltaThreshold(-1))
	if err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	defer rec2.Close()
	if rec2.Status().Live != len(ls.polys) {
		t.Fatalf("second recovery: %d polygons, want %d", rec2.Status().Live, len(ls.polys))
	}
	checkDeltaEquivalence(t, rec2, ls, pts, 250, 1)
}

// TestRecoverTornFinalRecord cuts the log at every byte boundary of the
// final record: every prefix must recover to exactly the state without the
// torn mutation (the full log recovers with it), and the reclaimed id must
// be reassigned to the next insert.
func TestRecoverTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "delta.wal")
	snapPath := filepath.Join(dir, "index.act")
	ctx := context.Background()

	base := []*act.Polygon{
		square(10, 10, 0.05), square(10.2, 10, 0.05),
		square(10, 10.2, 0.05), square(10.2, 10.2, 0.05),
	}
	idx, err := act.New(base,
		act.WithPrecision(250),
		act.WithDeltaThreshold(-1),
		act.WithWAL(act.WALConfig{Path: walPath, SnapshotPath: snapPath}))
	if err != nil {
		t.Fatal(err)
	}
	a := square(10.4, 10, 0.05)
	if _, err := idx.Insert(ctx, a); err != nil { // id 4
		t.Fatal(err)
	}
	if err := idx.Remove(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := idx.Compact(ctx); err != nil { // checkpoint: snapshot {0,2,3,4}
		t.Fatal(err)
	}
	c := square(10.4, 10.4, 0.05)
	cCenter := act.LatLng{Lat: 10.4, Lng: 10.4}
	preBytes := idx.Status().WAL.Bytes
	cid, err := idx.Insert(ctx, c) // the final record
	if err != nil {
		t.Fatal(err)
	}
	if cid != 5 {
		t.Fatalf("final insert got id %d, want 5", cid)
	}
	fullBytes := idx.Status().WAL.Bytes
	// Crash here: idx abandoned without Close.

	blob, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(blob)) != fullBytes {
		t.Fatalf("log is %d bytes, stats say %d", len(blob), fullBytes)
	}
	snapBlob, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}

	for cut := preBytes; cut <= fullBytes; cut++ {
		cutWAL := filepath.Join(dir, "cut.wal")
		cutSnap := filepath.Join(dir, "cut.act")
		if err := os.WriteFile(cutWAL, blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cutSnap, snapBlob, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := act.Recover(cutSnap, cutWAL)
		if err != nil {
			t.Fatalf("cut %d: Recover: %v", cut, err)
		}
		complete := cut == fullBytes
		wantPolys := 4
		if complete {
			wantPolys = 5
		}
		if got := rec.Status().Live; got != wantPolys {
			t.Fatalf("cut %d: recovered %d polygons, want %d", cut, got, wantPolys)
		}
		if hasID(rec, cCenter, cid) != complete {
			t.Fatalf("cut %d: torn insert visibility = %v, want %v", cut, !complete, complete)
		}
		// The torn insert was never acknowledged as durable, so its id must
		// be reassigned; a fully recovered one keeps it forever.
		nid, err := rec.Insert(ctx, square(10.6, 10.6, 0.05))
		if err != nil {
			t.Fatalf("cut %d: insert after recovery: %v", cut, err)
		}
		want := cid
		if complete {
			want = cid + 1
		}
		if nid != want {
			t.Fatalf("cut %d: post-recovery insert got id %d, want %d", cut, nid, want)
		}
		rec.Close()
	}
}

// TestDurableCrashRecoveryProperty runs randomized insert/remove/compact
// schedules against a WAL+checkpoint index, crashes at the end of each
// schedule, and checks that Recover reproduces an index result-identical
// to a from-scratch rebuild over the surviving polygon set.
func TestDurableCrashRecoveryProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test builds many indexes")
	}
	ctx := context.Background()
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		dir := t.TempDir()
		walPath := filepath.Join(dir, "delta.wal")
		snapPath := filepath.Join(dir, "index.act")
		pool := randPolygonSet(rng)
		for len(pool) < 12 {
			pool = append(pool, randPolygonSet(rng)...)
		}
		nBase := 3 + rng.Intn(3)
		base, inserts := pool[:nBase], pool[nBase:]
		idx, err := act.New(base,
			act.WithPrecision(250),
			act.WithDeltaThreshold(-1),
			act.WithWAL(act.WALConfig{Path: walPath, SnapshotPath: snapPath}))
		if err != nil {
			t.Fatal(err)
		}
		ls := &liveSet{polys: map[uint32]*act.Polygon{}}
		for i, p := range base {
			ls.polys[uint32(i)] = p
		}
		pts := randPoints(rng, pool, 60)

		compacted := false
		steps := 8 + rng.Intn(5)
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 5 && len(inserts) > 0:
				p := inserts[0]
				inserts = inserts[1:]
				id, err := idx.Insert(ctx, p)
				if err != nil {
					t.Fatalf("trial %d step %d: insert: %v", trial, step, err)
				}
				ls.polys[id] = p
			case op < 8 && len(ls.polys) > 1:
				ids := ls.ids()
				id := ids[rng.Intn(len(ids))]
				if err := idx.Remove(ctx, id); err != nil {
					t.Fatalf("trial %d step %d: remove %d: %v", trial, step, id, err)
				}
				delete(ls.polys, id)
			default:
				if err := idx.Compact(ctx); err != nil {
					t.Fatalf("trial %d step %d: compact: %v", trial, step, err)
				}
				if ds := idx.Status(); ds.Compactions > 0 {
					compacted = true
				}
			}
		}
		if !compacted {
			// Recover needs at least one checkpoint snapshot on disk.
			p := inserts[0]
			id, err := idx.Insert(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			ls.polys[id] = p
			if err := idx.Compact(ctx); err != nil {
				t.Fatal(err)
			}
		}
		// Crash: abandon idx without Close.
		rec, err := act.Recover(snapPath, walPath)
		if err != nil {
			t.Fatalf("trial %d: Recover: %v", trial, err)
		}
		if rec.Status().Live != len(ls.polys) {
			t.Fatalf("trial %d: recovered %d polygons, want %d", trial, rec.Status().Live, len(ls.polys))
		}
		checkDeltaEquivalence(t, rec, ls, pts, 250, trial)
		rec.Close()
	}
}

// TestRecoverThroughFS: with a WALConfig.FS, Recover loads its snapshot
// through that filesystem, onto the heap: a fault injected into the first
// open — the snapshot's — fails the recovery, and an empty schedule
// recovers the index the mapped load recovers, unmapped.
func TestRecoverThroughFS(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "index.act")
	rng := rand.New(rand.NewSource(73))
	pool := randPolygonSet(rng)
	built, err := act.New(pool, act.WithPrecision(250))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := built.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	through := func(s *fault.Schedule) act.Option {
		return act.WithWAL(act.WALConfig{FS: fault.FS{S: s}})
	}

	injected := errors.New("snapshot open refused")
	_, err = act.Recover(snapPath, filepath.Join(dir, "refused.wal"), through(fault.NewSchedule().FailNth(fault.OpOpen, 1, injected)))
	if !errors.Is(err, injected) || !strings.Contains(err.Error(), "loading snapshot") {
		t.Fatalf("Recover with the first open failing = %v, want the snapshot's load to fail with %v", err, injected)
	}

	mapped, err := act.Recover(snapPath, filepath.Join(dir, "mapped.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	heap, err := act.Recover(snapPath, filepath.Join(dir, "heap.wal"), through(fault.NewSchedule()))
	if err != nil {
		t.Fatal(err)
	}
	defer heap.Close()
	if !mapped.Status().Mapped || heap.Status().Mapped {
		t.Fatalf("Mapped: %v without an FS, %v with one; want true, false", mapped.Status().Mapped, heap.Status().Mapped)
	}
	for _, ll := range randPoints(rng, pool, 300) {
		if got, want := heap.AppendRefs(ll, nil), mapped.AppendRefs(ll, nil); !slices.Equal(got, want) {
			t.Fatalf("%v: recovered through the FS %v, mapped %v", ll, got, want)
		}
	}
}

// TestRecoverErrors: recovery without a snapshot fails cleanly, and WAL
// stats on an index without a log are the zero value.
func TestRecoverErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := act.Recover(filepath.Join(dir, "absent.act"), filepath.Join(dir, "absent.wal")); err == nil {
		t.Fatal("Recover with no snapshot succeeded")
	}
	idx, err := act.New([]*act.Polygon{square(0, 0, 0.1)}, act.WithPrecision(250))
	if err != nil {
		t.Fatal(err)
	}
	if ws := idx.Status().WAL; ws.Enabled || ws.Seq != 0 {
		t.Fatalf("WAL stats without a WAL: %+v", ws)
	}
	// WithWAL requires a path.
	if _, err := act.New([]*act.Polygon{square(0, 0, 0.1)},
		act.WithPrecision(250), act.WithWAL(act.WALConfig{})); err == nil {
		t.Fatal("WithWAL without a Path succeeded")
	}
}
