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
// compaction cancelled in the middle of its cover phase, reproducibly.
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

// TestCompactCancelledMidCover cancels a compaction a few polygons into its
// cover phase: the phase must stop within one covering per worker — not run
// to its end and only then look — and nothing may be published.
func TestCompactCancelledMidCover(t *testing.T) {
	set, err := data.CensusBlocks(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		ix, err := New(set.Polygons, WithPrecision(60), WithBuildWorkers(workers), WithDeltaThreshold(-1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Insert(context.Background(), set.Polygons[0]); err != nil {
			t.Fatal(err)
		}
		epoch := ix.Epoch()

		const coveredBeforeCancel = 10
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(coveredBeforeCancel)
		if err := ix.Compact(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%d workers: Compact = %v, want context.Canceled", workers, err)
		}
		if asked := ctx.asked.Load(); asked > coveredBeforeCancel+int64(workers) {
			t.Errorf("%d workers: the context was asked %d times for %d polygons; the phase ran on after cancellation",
				workers, asked, len(set.Polygons)+1)
		}
		if ds := ix.DeltaStats(); ix.Epoch() != epoch || ds.Compactions != 0 || ds.Pending != 1 {
			t.Errorf("%d workers: cancelled compaction published: epoch %d → %d, %+v", workers, epoch, ix.Epoch(), ds)
		}

		// The index is none the worse for it.
		if err := ix.Compact(context.Background()); err != nil {
			t.Fatal(err)
		}
		if ds := ix.DeltaStats(); ds.Compactions != 1 || ds.Pending != 0 {
			t.Errorf("%d workers: after a full compaction: %+v", workers, ds)
		}
	}
}

// TestCompactionLogsPhases: the compaction log line says where the rebuild
// spent its time, and the phases fit inside the duration the hook is given.
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
	sum := 0.0
	for _, key := range []string{"cover_ms", "merge_ms", "trie_ms"} {
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
