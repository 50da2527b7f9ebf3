package act_test

// Crash-window tests for the checkpoint: a checkpoint writes the snapshot
// (temp file, fsync, rename, directory fsync) and then rotates the log,
// all through WALConfig.FS. Failing an operation there through a
// fault.FS schedule must leave a pair of files Recover turns back into the
// acknowledged state.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/fault"
)

// crashModel is the trivially correct ground truth: the live polygon of
// every id the index acknowledged.
type crashModel map[uint32]*act.Polygon

// mutate applies n random inserts (from pool) and removes to idx and the
// model alike.
func (m crashModel) mutate(t *testing.T, idx *act.Index, rng *rand.Rand, pool []*act.Polygon, n int) {
	t.Helper()
	ctx := context.Background()
	for range n {
		if len(m) > 2 && rng.Intn(3) == 0 {
			ids := make([]uint32, 0, len(m))
			for id := range m {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			id := ids[rng.Intn(len(ids))]
			if err := idx.Remove(ctx, id); err != nil {
				t.Fatalf("remove %d: %v", id, err)
			}
			delete(m, id)
			continue
		}
		p := pool[rng.Intn(len(pool))]
		id, err := idx.Insert(ctx, p)
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		m[id] = p
	}
}

// check demands that idx's exact lookups equal a brute-force scan over the
// model's polygons at every point.
func (m crashModel) check(t *testing.T, what string, idx *act.Index, pts []act.LatLng) {
	t.Helper()
	ids := make([]uint32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	polys := make([]*act.Polygon, len(ids))
	for i, id := range ids {
		polys[i] = m[id]
	}
	if idx.Status().Live != len(m) {
		t.Fatalf("%s: %d polygons, model has %d", what, idx.Status().Live, len(m))
	}
	o := buildOracle(t, polys)
	var res act.Result
	var buf []uint32
	hits := 0
	for i, ll := range pts {
		mustLookup(t, idx, ll, act.Exact, &res)
		want := translate(o.exactIDs(ll, buf[:0]), ids)
		if got := sorted(res.True); !slices.Equal(got, want) {
			t.Fatalf("%s: point %d: exact lookup %v, model %v", what, i, got, want)
		}
		hits += len(want)
	}
	if hits == 0 {
		t.Fatalf("%s: no point hit the model; the check is vacuous", what)
	}
}

// crashImage copies the durability pair into a fresh directory, as a
// crash would leave it, so Recover runs on it while the live index keeps
// its own files.
func crashImage(t *testing.T, files ...string) []string {
	t.Helper()
	dir := t.TempDir()
	out := make([]string, len(files))
	for i, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = filepath.Join(dir, filepath.Base(f))
		if err := os.WriteFile(out[i], b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// crashSetup builds a durable index over fault.FS with a first, healthy
// checkpoint behind it, and the mutations after it.
func crashSetup(t *testing.T, seed int64) (idx *act.Index, sched *fault.Schedule, m crashModel, walPath, snapPath string, rng *rand.Rand, pool []*act.Polygon, pts []act.LatLng) {
	t.Helper()
	dir := t.TempDir()
	walPath = filepath.Join(dir, "delta.wal")
	snapPath = filepath.Join(dir, "index.act")
	rng = rand.New(rand.NewSource(seed))
	pool = randPolygonSet(rng)
	for len(pool) < 12 {
		pool = append(pool, randPolygonSet(rng)...)
	}
	base := pool[:4]
	pts = randPoints(rng, pool, 200)
	sched = fault.NewSchedule()
	idx, err := act.New(base,
		act.WithPrecision(250),
		act.WithDeltaThreshold(-1),
		act.WithWAL(act.WALConfig{Path: walPath, SnapshotPath: snapPath, FS: fault.FS{S: sched}}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	m = crashModel{}
	for i, p := range base {
		m[uint32(i)] = p
	}
	m.mutate(t, idx, rng, pool, 8)
	if err := idx.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	m.mutate(t, idx, rng, pool, 8)
	return idx, sched, m, walPath, snapPath, rng, pool, pts
}

// TestCrashWindowSnapshotSync fails the checkpoint snapshot's data fsync.
// The checkpoint reports it, the previous snapshot stays byte-identical,
// no temp file is left, the log keeps its floor, and Recover from the
// files matches the model.
func TestCrashWindowSnapshotSync(t *testing.T) {
	idx, sched, m, walPath, snapPath, _, _, pts := crashSetup(t, 81)
	prev, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	floor := idx.Status().WAL.BaseSeq

	// The next fsync is the snapshot's own: staging runs before anything
	// else in the checkpoint touches the disk.
	sched.FailNth(fault.OpSync, sched.Count(fault.OpSync)+1, syscall.EIO)
	if err := idx.Checkpoint(context.Background()); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Checkpoint with a failing snapshot fsync: %v, want EIO", err)
	}
	if sched.Injected() != 1 {
		t.Fatalf("%d faults injected, want 1", sched.Injected())
	}
	if got, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(got, prev) {
		t.Fatalf("previous snapshot changed (%d vs %d bytes, %v)", len(got), len(prev), err)
	}
	ents, err := os.ReadDir(filepath.Dir(snapPath))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if p := filepath.Join(filepath.Dir(snapPath), e.Name()); p != snapPath && p != walPath {
			t.Fatalf("failed checkpoint left %s behind", e.Name())
		}
	}
	if ws := idx.Status().WAL; ws.BaseSeq != floor || ws.Failed != "" {
		t.Fatalf("WAL after the failed checkpoint: %+v, want floor %d and healthy", ws, floor)
	}
	m.check(t, "live index", idx, pts)

	img := crashImage(t, snapPath, walPath)
	rec, err := act.Recover(img[0], img[1], act.WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	m.check(t, "recovered index", rec, pts)
}

// TestCrashWindowRotation fails the log rotation after the snapshot's
// rename has committed: the window between publishing the snapshot and
// truncating the log. The new snapshot and the full old log must recover
// to the live index's answers, and once both compact, to its bytes.
func TestCrashWindowRotation(t *testing.T) {
	idx, sched, m, walPath, snapPath, rng, pool, pts := crashSetup(t, 82)
	ws := idx.Status().WAL

	// The checkpoint renames twice: the snapshot into place, then the
	// rotated log. Fail the second.
	sched.FailNth(fault.OpRename, sched.Count(fault.OpRename)+2, syscall.EIO)
	if err := idx.Compact(context.Background()); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Compact with a failing log rotation: %v, want EIO", err)
	}
	after := idx.Status().WAL
	if after.BaseSeq != ws.BaseSeq || after.Checkpoints != ws.Checkpoints || after.Failed != "" {
		t.Fatalf("WAL after the failed rotation: %+v, want floor %d, %d rotations, healthy", after, ws.BaseSeq, ws.Checkpoints)
	}
	snap, err := act.OpenIndex(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Status().Live != len(m) {
		t.Fatalf("committed snapshot has %d polygons, want %d", snap.Status().Live, len(m))
	}
	snap.Close()

	// Churn on top of the window, so the recovered log holds records both
	// under and over the new snapshot.
	m.mutate(t, idx, rng, pool, 6)
	m.check(t, "live index", idx, pts)

	img := crashImage(t, snapPath, walPath)
	rec, err := act.Recover(img[0], img[1], act.WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	m.check(t, "recovered index", rec, pts)
	var a, b act.Result
	for i, ll := range pts {
		mustLookup(t, idx, ll, act.Approximate, &a)
		mustLookup(t, rec, ll, act.Approximate, &b)
		if !slices.Equal(sorted(a.True), sorted(b.True)) || !slices.Equal(sorted(a.Candidates), sorted(b.Candidates)) {
			t.Fatalf("point %d: live lookup %v/%v, recovered %v/%v", i, a.True, a.Candidates, b.True, b.Candidates)
		}
	}

	ctx := context.Background()
	for _, ix := range []*act.Index{idx, rec} {
		if err := ix.Compact(ctx); err != nil {
			t.Fatal(err)
		}
	}
	var live, recovered bytes.Buffer
	if _, err := idx.WriteTo(&live); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.WriteTo(&recovered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), recovered.Bytes()) {
		t.Fatalf("after Compact the recovered index writes %d bytes, the live one %d, and they differ",
			recovered.Len(), live.Len())
	}
}
