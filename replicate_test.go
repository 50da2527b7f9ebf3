package act_test

// Index-level replication machinery tests: OpenFollower's read-only
// surface, and ApplyReplicated's convergence and idempotency against the
// primary's actual log records — the wire transport is exercised
// separately in internal/replica.

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/wal"
)

// readWALRecords reads every record in the log at path through the same
// frame reader the replication stream uses.
func readWALRecords(t *testing.T, path string) []wal.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := wal.ReadHeader(f); err != nil {
		t.Fatal(err)
	}
	var records []wal.Record
	for {
		rec, err := wal.ReadFrame(f)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("reading log frames: %v", err)
			}
			return records
		}
		records = append(records, rec)
	}
}

func TestApplyReplicatedIdempotent(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "primary.wal")
	snapPath := filepath.Join(dir, "primary.snapshot")
	ctx := context.Background()

	var base []*act.Polygon
	centers := map[uint32]act.LatLng{}
	for i := 0; i < 4; i++ {
		lat := 10 + 0.5*float64(i)
		base = append(base, square(lat, lat, 0.1))
		centers[uint32(i)] = act.LatLng{Lat: lat, Lng: lat}
	}
	// No background compaction: with four polygons the second mutation
	// would start one, and its checkpoint — when it wins the race with the
	// reads below — rotates the mutations out of the log under test.
	idx, err := act.New(base,
		act.WithPrecision(250),
		act.WithDeltaThreshold(-1),
		act.WithWAL(act.WALConfig{Path: walPath, SnapshotPath: snapPath}))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	// Bootstrap snapshot of the clean base (floor 0): every mutation below
	// stays in the log for the follower to apply.
	if err := idx.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 9; i++ {
		lat := 10 + 0.5*float64(i)
		id, err := idx.Insert(ctx, square(lat, lat, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		centers[id] = act.LatLng{Lat: lat, Lng: lat}
	}
	for _, id := range []uint32{2, 5} {
		if err := idx.Remove(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	live := func(id uint32) bool { return id != 2 && id != 5 }

	fol, err := act.OpenFollower(snapPath, act.WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	if !fol.Status().Follower || fol.Status().Mutable {
		t.Fatalf("follower=%v mutable=%v, want true/false", fol.Status().Follower, fol.Status().Mutable)
	}
	if _, err := fol.Insert(ctx, base[0]); !errors.Is(err, act.ErrFollower) {
		t.Fatalf("Insert on follower: %v, want ErrFollower", err)
	}
	if err := fol.Remove(ctx, 0); !errors.Is(err, act.ErrFollower) {
		t.Fatalf("Remove on follower: %v, want ErrFollower", err)
	}
	if seq := fol.Status().Seq; seq != 0 {
		t.Fatalf("fresh follower AppliedSeq = %d, want 0", seq)
	}

	// 7 mutations plus the rotation's checkpoint marker — followers see
	// those markers on the wire too, and must pass them through unharmed.
	records := readWALRecords(t, walPath)
	if len(records) != 8 || records[0].Type != wal.TypeCheckpoint {
		t.Fatalf("log carries %d records (first type %d), want 8 led by a checkpoint", len(records), records[0].Type)
	}
	check := func(when string) {
		t.Helper()
		if got, want := fol.Status().Seq, idx.Status().WAL.Seq; got != want {
			t.Fatalf("%s: AppliedSeq = %d, want %d", when, got, want)
		}
		if got, want := fol.Status().Live, idx.Status().Live; got != want {
			t.Fatalf("%s: follower has %d polygons, want %d", when, got, want)
		}
		for id, c := range centers {
			if got := hasID(fol, c, id); got != live(id) {
				t.Fatalf("%s: presence of polygon %d = %v, want %v", when, id, got, live(id))
			}
		}
	}
	if err := fol.ApplyReplicated(ctx, records); err != nil {
		t.Fatal(err)
	}
	check("first apply")

	// Idempotency: re-applying the whole batch, or any prefix of it, is a
	// pure overlap — state identical, not even an epoch swing.
	epoch := fol.Status().Generation
	for _, overlap := range [][]wal.Record{records, records[:3], nil} {
		if err := fol.ApplyReplicated(ctx, overlap); err != nil {
			t.Fatalf("overlap apply: %v", err)
		}
	}
	check("after overlaps")
	if fol.Status().Generation != epoch {
		t.Fatalf("pure overlap swung the epoch: %d -> %d", epoch, fol.Status().Generation)
	}

	// A hole in the stream (an insert whose id skips ahead) is corruption
	// and must fail without publishing anything.
	bad := wal.Record{Type: wal.TypeInsert, Seq: 99, ID: uint32(fol.Status().Live) + 7, Data: records[1].Data}
	err = fol.ApplyReplicated(ctx, []wal.Record{bad})
	if err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gap insert: %v, want an id-gap error", err)
	}
	check("after rejected gap")

	// ApplyReplicated is follower-only.
	if err := idx.ApplyReplicated(ctx, records[:1]); err == nil {
		t.Fatal("ApplyReplicated on a primary succeeded")
	}
}

// TestPromoteAdoptsSeq: Promote continues the history from the sequence it
// is given — the follower's position, which a bootstrapped snapshot's floor
// can put above the index's own — and refuses one below what the index has
// already applied.
func TestPromoteAdoptsSeq(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	walPath := filepath.Join(dir, "primary.wal")
	snapPath := filepath.Join(dir, "primary.snapshot")
	idx, err := act.New([]*act.Polygon{square(10, 10, 0.1)},
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
	for i := 1; i < 3; i++ {
		lat := 10 + 0.5*float64(i)
		if _, err := idx.Insert(ctx, square(lat, lat, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	fol, err := act.OpenFollower(snapPath, act.WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	if err := fol.ApplyReplicated(ctx, readWALRecords(t, walPath)); err != nil {
		t.Fatal(err)
	}
	if got := fol.Status().Seq; got != 2 {
		t.Fatalf("AppliedSeq after two inserts = %d, want 2", got)
	}
	cfg := act.WALConfig{Path: filepath.Join(dir, "promoted.wal"), SnapshotPath: filepath.Join(dir, "promoted.snapshot")}
	if err := fol.Promote(ctx, cfg, 1, 1); err == nil || !strings.Contains(err.Error(), "below") {
		t.Fatalf("promote at seq 1 over an index at 2: %v, want a refusal", err)
	}
	if !fol.Status().Follower {
		t.Fatal("refused promotion changed the role")
	}
	if err := fol.Promote(ctx, cfg, 1, 5); err != nil {
		t.Fatal(err)
	}
	if ws := fol.Status().WAL; fol.Status().Seq != 5 || ws.BaseSeq != 5 || ws.Seq != 5 {
		t.Fatalf("promoted at 5: AppliedSeq %d, log base %d seq %d, want 5/5/5", fol.Status().Seq, ws.BaseSeq, ws.Seq)
	}
	if _, err := fol.Insert(ctx, square(12, 12, 0.1)); err != nil {
		t.Fatal(err)
	}
	if got := fol.Status().WAL.Seq; got != 6 {
		t.Fatalf("first insert after promotion logged seq %d, want 6", got)
	}
}

// TestPromoteKeepsObserver: the log a promotion opens must carry the
// index's observer like the log attachWAL opens — a promoted primary whose
// WAL appends, fsyncs and rotations go unobserved reports a silent, healthy
// looking log for the rest of its life.
func TestPromoteKeepsObserver(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	snapPath := filepath.Join(dir, "bootstrap.snapshot")
	src, err := act.New([]*act.Polygon{square(10, 10, 0.1)}, act.WithPrecision(250))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var appends, fsyncs, rotations int
	obs := &act.Observer{
		OnWALAppend: func(error) { appends++ },
		OnWALFsync:  func(time.Duration, error) { fsyncs++ },
		OnWALRotate: func(error) { rotations++ },
	}
	fol, err := act.OpenFollower(snapPath, act.WithObserver(obs), act.WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	cfg := act.WALConfig{Path: filepath.Join(dir, "promoted.wal"), SnapshotPath: filepath.Join(dir, "promoted.snapshot")}
	if err := fol.Promote(ctx, cfg, 1, 0); err != nil {
		t.Fatal(err)
	}
	appends, fsyncs = 0, 0 // opening the fresh log may sync its header
	if _, err := fol.Insert(ctx, square(11, 11, 0.1)); err != nil {
		t.Fatal(err)
	}
	if seq := fol.Status().WAL.Seq; seq != 1 {
		t.Fatalf("WAL seq after one insert = %d, want 1", seq)
	}
	if appends != 1 || fsyncs == 0 {
		t.Fatalf("after one SyncAlways insert on the promoted primary: %d appends, %d fsyncs observed, want 1 and at least 1", appends, fsyncs)
	}
	if err := fol.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if rotations != 1 {
		t.Fatalf("after one checkpoint on the promoted primary: %d rotations observed, want 1", rotations)
	}
}

// TestPromoteConcurrentReaders: the lock-free accessors a serving layer
// polls — /metrics and /stats — read the role and its log while Promote
// replaces them. Under -race this fails if any of them reads a field
// Promote writes without the two being ordered.
func TestPromoteConcurrentReaders(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	snapPath := filepath.Join(dir, "bootstrap.snapshot")
	var polys []*act.Polygon
	for i := 0; i < 8; i++ {
		lat := 10 + 0.5*float64(i)
		polys = append(polys, square(lat, lat, 0.1))
	}
	src, err := act.New(polys, act.WithPrecision(250))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fol, err := act.OpenFollower(snapPath, act.WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = fol.Status()
			}
		}()
	}
	cfg := act.WALConfig{Path: filepath.Join(dir, "promoted.wal"), SnapshotPath: filepath.Join(dir, "promoted.snapshot")}
	err = fol.Promote(ctx, cfg, 1, 0)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !fol.Status().Mutable || fol.Status().Follower || !fol.Status().WAL.Enabled {
		t.Fatalf("after Promote: mutable=%v follower=%v wal=%v, want true/false/true",
			fol.Status().Mutable, fol.Status().Follower, fol.Status().WAL.Enabled)
	}
}
