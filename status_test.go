package act_test

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/actindex/act"
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

// TestStatusOneEpoch drives a primary and then a follower through
// background compactions and a promotion while readers check that every
// Status is internally consistent (see watchStatus). Writers insert fresh
// polygons and remove only ids of the initial build, so each removal is a
// tombstone against the base.
func TestStatusOneEpoch(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	const initial, inserts = 24, 48
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
			if _, err := primary.Insert(ctx, square(20+0.2*float64(i%8), 20+0.2*float64(i/8), 0.05)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
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
	if want.Live != initial/2+inserts || want.Compactions == 0 {
		t.Fatalf("primary after churn: %d live, %d compactions; want %d live after at least one compaction",
			want.Live, want.Compactions, initial/2+inserts)
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
