package act_test

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/fault"
)

// watchStatus starts readers that check every Status of ix until the
// returned stop is called, which reports how many reads were checked. A
// Status is one epoch, one role and one fence, so at every instant the base
// count plus the delta minus the tombstones is the live count, the epoch
// generation and compaction count never step back, and no index is both
// mutable and a follower.
func watchStatus(t *testing.T, ix *act.Index) (stop func() int64) {
	t.Helper()
	done := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last act.Status
			for {
				select {
				case <-done:
					return
				default:
				}
				st := ix.Status()
				if got := st.Build.NumPolygons + st.DeltaPolygons - st.Tombstones; got != st.Live {
					t.Errorf("torn status: %d base + %d delta - %d tombstones = %d, but %d live",
						st.Build.NumPolygons, st.DeltaPolygons, st.Tombstones, got, st.Live)
					return
				}
				if st.Generation < last.Generation || st.Compactions < last.Compactions {
					t.Errorf("status stepped back: generation %d → %d, compactions %d → %d",
						last.Generation, st.Generation, last.Compactions, st.Compactions)
					return
				}
				if st.Mutable && st.Follower {
					t.Errorf("status reports a mutable follower: %+v", st)
					return
				}
				last = st
				reads.Add(1)
			}
		}()
	}
	return func() int64 {
		close(done)
		wg.Wait()
		return reads.Load()
	}
}

// checkSum fails the test unless st's mutation layer adds up to its live
// count, and returns st for further checks.
func checkSum(t *testing.T, when string, st act.Status) act.Status {
	t.Helper()
	if got := st.Build.NumPolygons + st.DeltaPolygons - st.Tombstones; got != st.Live {
		t.Fatalf("%s: %d base + %d delta - %d tombstones = %d, but %d live",
			when, st.Build.NumPolygons, st.DeltaPolygons, st.Tombstones, got, st.Live)
	}
	return st
}

// gateFS is the real filesystem, except that once armed the first
// temporary file created in dir waits for release. A compaction with a
// snapshot path stages its checkpoint there after it has rebuilt the base
// from its snapshot of the index and before it swaps the new base in, so
// the gate holds a compaction exactly in the window where mutations land
// in its residual.
type gateFS struct {
	fault.OS
	dir              string
	armed            atomic.Bool
	reached, release chan struct{}
}

func (g *gateFS) CreateTemp(dir, pattern string) (fault.File, error) {
	if dir == g.dir && g.armed.CompareAndSwap(true, false) {
		close(g.reached)
		<-g.release
	}
	return g.OS.CreateTemp(dir, pattern)
}

// TestStatusSumBeforeCompaction pins Status's sum in the two states where a
// removal meets an insert the base does not hold yet: a polygon inserted
// and removed before any compaction, and a polygon folded by a compaction
// that is removed while that compaction runs. Lookups agree with the
// counts in both. A third compaction is held while two inserts and a
// removal of the second land: its residual is those inserts, and IsDelta
// holds exactly for the first, the residual's one live id.
func TestStatusSumBeforeCompaction(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	snapDir := filepath.Join(dir, "snap")
	if err := os.Mkdir(snapDir, 0o755); err != nil {
		t.Fatal(err)
	}
	gate := &gateFS{dir: snapDir, reached: make(chan struct{}), release: make(chan struct{})}
	var polys []*act.Polygon
	for i := range 4 {
		polys = append(polys, square(10+0.3*float64(i), 10, 0.1))
	}
	ix, err := act.New(polys, act.WithPrecision(250), act.WithDeltaThreshold(-1),
		act.WithWAL(act.WALConfig{Path: filepath.Join(dir, "ix.wal"), SnapshotPath: filepath.Join(snapDir, "ix.act"), Policy: act.SyncOff, FS: gate}))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	matches := func(ll act.LatLng) bool {
		var res act.Result
		return mustLookup(t, ix, ll, act.Approximate, &res) || mustLookup(t, ix, ll, act.Exact, &res)
	}

	// Insert then remove before compaction: the insert and the removal both
	// count until a compaction folds them.
	a := act.LatLng{Lat: 20, Lng: 20}
	idA, err := ix.Insert(ctx, square(a.Lat, a.Lng, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Remove(ctx, idA); err != nil {
		t.Fatal(err)
	}
	if st := checkSum(t, "insert then remove", ix.Status()); st.DeltaPolygons != 1 || st.Tombstones != 1 || st.Live != 4 {
		t.Fatalf("insert then remove: %+v", st)
	}
	if matches(a) || ix.IsDelta(idA) {
		t.Fatal("a polygon removed before compaction still matches or counts as a delta polygon")
	}

	// A compaction snapshots the index with b inserted; b is removed while
	// the compaction runs, so the new base holds b and the residual
	// filters it out.
	b := act.LatLng{Lat: 20, Lng: 21}
	idB, err := ix.Insert(ctx, square(b.Lat, b.Lng, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	gate.armed.Store(true)
	done := make(chan error, 1)
	go func() { done <- ix.Compact(ctx) }()
	<-gate.reached
	removeErr := ix.Remove(ctx, idB)
	mid := ix.Status()
	close(gate.release) // before any check: a failing test must not leave the compaction held
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if removeErr != nil {
		t.Fatal(removeErr)
	}
	if st := checkSum(t, "removal mid-compaction", mid); st.DeltaPolygons != 2 || st.Tombstones != 2 || st.Compactions != 0 {
		t.Fatalf("removal mid-compaction: %+v", st)
	}
	st := checkSum(t, "after the compaction", ix.Status())
	if st.Build.NumPolygons != 5 || st.DeltaPolygons != 0 || st.Tombstones != 1 || st.Live != 4 || st.Compactions != 1 {
		t.Fatalf("after the compaction: %+v", st)
	}
	if matches(b) || matches(a) {
		t.Fatal("a polygon removed during a compaction matches after it")
	}
	if err := ix.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if st := checkSum(t, "after a second compaction", ix.Status()); st.Build.NumPolygons != 4 || st.DeltaPolygons+st.Tombstones != 0 {
		t.Fatalf("after a second compaction: %+v", st)
	}
	if matches(b) || !matches(act.LatLng{Lat: 10, Lng: 10}) {
		t.Fatal("the compacted index lost a live polygon or kept a removed one")
	}

	// The held compaction folds c; d and e land in its residual, and e is
	// removed there.
	c, d, e := act.LatLng{Lat: 20, Lng: 22}, act.LatLng{Lat: 20, Lng: 23}, act.LatLng{Lat: 20, Lng: 24}
	if _, err := ix.Insert(ctx, square(c.Lat, c.Lng, 0.1)); err != nil {
		t.Fatal(err)
	}
	gate.reached, gate.release = make(chan struct{}), make(chan struct{})
	gate.armed.Store(true)
	go func() { done <- ix.Compact(ctx) }()
	<-gate.reached
	idD, errD := ix.Insert(ctx, square(d.Lat, d.Lng, 0.1))
	idE, errE := ix.Insert(ctx, square(e.Lat, e.Lng, 0.1))
	if errE == nil {
		errE = ix.Remove(ctx, idE)
	}
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if errD != nil || errE != nil {
		t.Fatal(errD, errE)
	}
	st = checkSum(t, "after the held compaction", ix.Status())
	if st.Build.NumPolygons != 5 || st.DeltaPolygons != 2 || st.Tombstones != 1 || st.Live != 6 || st.Compactions != 3 {
		t.Fatalf("after the held compaction: %+v", st)
	}
	for id := range idE + 2 {
		if got := ix.IsDelta(id); got != (id == idD) {
			t.Errorf("IsDelta(%d) = %v; the residual's only live id is %d", id, got, idD)
		}
	}
	if !matches(c) || !matches(d) || matches(e) {
		t.Fatal("after the held compaction, the folded or the residual inserts match wrongly")
	}
}

// TestStatusOneEpoch drives a primary and then a follower through
// background compactions and a promotion while readers check that every
// Status is internally consistent (see watchStatus). Writers insert fresh
// polygons and remove ids of the initial build and some of their own
// inserts, before or after a compaction folds them.
func TestStatusOneEpoch(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	const initial, inserts = 24, 48
	const ownRemoved = inserts / 4
	var polys []*act.Polygon
	for i := range initial {
		polys = append(polys, square(10+0.3*float64(i%6), 10+0.3*float64(i/6), 0.1))
	}
	walPath := filepath.Join(dir, "primary.wal")
	primary, err := act.New(polys, act.WithPrecision(250), act.WithDeltaThreshold(3),
		act.WithWAL(act.WALConfig{Path: walPath, Policy: act.SyncOff}))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	snapPath := filepath.Join(dir, "bootstrap.snapshot")
	f, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	stop := watchStatus(t, primary)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range inserts {
			id, err := primary.Insert(ctx, square(20+0.2*float64(i%8), 20+0.2*float64(i/8), 0.05))
			if err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
			if i%4 == 3 {
				if err := primary.Remove(ctx, id); err != nil {
					t.Errorf("remove own insert %d: %v", id, err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for id := uint32(0); id < initial; id += 2 {
			if err := primary.Remove(ctx, id); err != nil {
				t.Errorf("remove %d: %v", id, err)
				return
			}
		}
	}()
	wg.Wait()
	if n := stop(); n == 0 {
		t.Fatal("no Status read on the primary")
	}
	want := primary.Status()
	if want.Live != initial/2+inserts-ownRemoved || want.Compactions == 0 {
		t.Fatalf("primary after churn: %d live, %d compactions; want %d live after at least one compaction",
			want.Live, want.Compactions, initial/2+inserts-ownRemoved)
	}

	// The follower replays the same history in small batches, compacting as
	// it goes, and is then promoted: the role swings from follower to
	// primary under the readers.
	fol, err := act.OpenFollower(snapPath, act.WithDeltaThreshold(3))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	stop = watchStatus(t, fol)
	records := readWALRecords(t, walPath)
	for i := 0; i < len(records); i += 5 {
		if err := fol.ApplyReplicated(ctx, records[i:min(i+5, len(records))]); err != nil {
			t.Fatal(err)
		}
	}
	cfg := act.WALConfig{Path: filepath.Join(dir, "promoted.wal"), SnapshotPath: filepath.Join(dir, "promoted.snapshot")}
	if err := fol.Promote(ctx, cfg, 1, records[len(records)-1].Seq); err != nil {
		t.Fatal(err)
	}
	if n := stop(); n == 0 {
		t.Fatal("no Status read on the follower")
	}
	if st := fol.Status(); st.Live != want.Live || !st.Mutable || st.Follower || st.Compactions == 0 {
		t.Fatalf("promoted follower: %d live (primary %d), mutable %v, follower %v, %d compactions",
			st.Live, want.Live, st.Mutable, st.Follower, st.Compactions)
	}
}
