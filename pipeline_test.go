package act

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"sync/atomic"
	"testing"
	"time"

	"github.com/actindex/act/internal/data"
)

// countdownCtx is done once its Err has been asked a number of times: a
// compaction cancelled in the middle of its enumeration, reproducibly.
type countdownCtx struct {
	context.Context
	left, asked atomic.Int64
}

func (c *countdownCtx) Err() error {
	c.asked.Add(1)
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCompactCancelledMidEnumeration cancels a compaction part-way through
// its walk over the base trie's cells — the only compaction there is, on a
// built index and on a recovered one alike. The walk must stop at the ask
// that reports the cancellation, not run to its end (nor on into the merge
// and the trie build) and only then look, and nothing may be published.
func TestCompactCancelledMidEnumeration(t *testing.T) {
	set, err := data.CensusBlocks(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	built, err := New(set.Polygons, WithPrecision(60), WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	cells := built.Status().Build.IndexedCells
	if cells < 4*cancelCheckEvery {
		t.Fatalf("the base has %d cells: too few to cancel in the middle of, at one ask per %d", cells, cancelCheckEvery)
	}
	snap := writeIndexFile(t, built)
	recovered, err := Recover(snap, snap+".wal", WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()

	for name, ix := range map[string]*Index{"built": built, "recovered": recovered} {
		if _, err := ix.Insert(context.Background(), set.Polygons[0]); err != nil {
			t.Fatal(err)
		}
		if err := ix.Remove(context.Background(), 3); err != nil {
			t.Fatal(err)
		}
		epoch := ix.Status().Generation

		const asksBeforeCancel = 2
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(asksBeforeCancel)
		if err := ix.Compact(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Compact = %v, want context.Canceled", name, err)
		}
		if asked := ctx.asked.Load(); asked != asksBeforeCancel+1 {
			t.Errorf("%s: the context was asked %d times over %d cells, want %d: the walk ran on after cancellation",
				name, asked, cells, asksBeforeCancel+1)
		}
		if ds := ix.Status(); ds.Generation != epoch || ds.Compactions != 0 || ds.DeltaPolygons+ds.Tombstones != 2 {
			t.Errorf("%s: cancelled compaction published: epoch %d → %d, %+v", name, epoch, ix.Status().Generation, ds)
		}

		// A context that lasts through the walk (one ask per
		// cancelCheckEvery cells) is asked again after the merge, after the
		// trie build and after the store reassembly.
		ctx = &countdownCtx{Context: context.Background()}
		ctx.left.Store(int64(cells/cancelCheckEvery) + 1)
		if err := ix.Compact(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Compact cancelled past the walk = %v, want context.Canceled", name, err)
		}
		if ds := ix.Status(); ds.Generation != epoch || ds.Compactions != 0 || ds.DeltaPolygons+ds.Tombstones != 2 {
			t.Errorf("%s: compaction cancelled past the walk published: epoch %d → %d, %+v", name, epoch, ix.Status().Generation, ds)
		}

		// The index is none the worse for it.
		if err := ix.Compact(context.Background()); err != nil {
			t.Fatal(err)
		}
		if ds := ix.Status(); ds.Compactions != 1 || ds.DeltaPolygons+ds.Tombstones != 0 {
			t.Errorf("%s: after a full compaction: %+v", name, ds)
		}
	}
}

// TestCompactionLogsPhases: the compaction log line says where the rebuild
// spent its time — merge and trie build; a compaction covers nothing, so
// there is no cover_ms — and the phases fit inside the duration the hook is
// given.
func TestCompactionLogsPhases(t *testing.T) {
	set, err := data.CensusBlocks(1, 60)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	var hook time.Duration
	obs := &Observer{
		Logger:       slog.New(slog.NewJSONHandler(&log, nil)),
		OnCompaction: func(d time.Duration, err error) { hook = d },
	}
	ix, err := New(set.Polygons, WithPrecision(60), WithDeltaThreshold(-1), WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(context.Background(), set.Polygons[0]); err != nil {
		t.Fatal(err)
	}
	if err := ix.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	var line map[string]any
	for _, raw := range bytes.Split(bytes.TrimSpace(log.Bytes()), []byte("\n")) {
		fields := map[string]any{}
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatalf("log line %q: %v", raw, err)
		}
		if fields["msg"] == "compaction" {
			line = fields
		}
	}
	if line == nil {
		t.Fatalf("no compaction line in the log:\n%s", log.String())
	}
	if v, ok := line["cover_ms"]; ok {
		t.Errorf("compaction line still carries cover_ms = %v", v)
	}
	sum := 0.0
	for _, key := range []string{"merge_ms", "trie_ms"} {
		ms, ok := line[key].(float64)
		if !ok || ms <= 0 {
			t.Errorf("compaction line has %s = %v, want a positive number", key, line[key])
		}
		sum += ms
	}
	if total := float64(hook.Microseconds()) / 1e3; sum > total {
		t.Errorf("phases add up to %.3f ms, more than the compaction's %.3f ms", sum, total)
	}
}
