package act

import (
	"log/slog"
	"time"
)

// Observer is the index's observability hook set: callbacks the serving
// layer uses to count WAL and compaction events, plus a structured logger
// for the index's own lifecycle lines (WAL recovery, fail-stop, checkpoint
// rotation, compaction). Attach one with WithObserver; every field is
// optional, and a nil Observer is equivalent to one with all fields nil.
//
// Callbacks must be fast and must not call back into the index or its WAL:
// they run on the mutation path (OnWALAppend, OnWALFsync under the log's
// lock; OnCompaction on the compaction goroutine). Incrementing an atomic
// metric is the intended use.
type Observer struct {
	// Logger receives the index's structured log events. Nil disables
	// logging without disabling the metric callbacks.
	Logger *slog.Logger
	// OnWALAppend fires after every WAL record append attempt, with the
	// error (nil on success).
	OnWALAppend func(err error)
	// OnWALFsync fires after every WAL fsync attempt with its duration.
	OnWALFsync func(d time.Duration, err error)
	// OnWALRotate fires after every checkpoint rotation attempt.
	OnWALRotate func(err error)
	// OnCompaction fires after every compaction that actually rebuilt the
	// base (no-op triggers on a clean index do not count), with the rebuild
	// duration and the error (nil on success).
	OnCompaction func(d time.Duration, err error)
}

// WithObserver attaches the observer to the index being built (or
// recovered): its WAL callbacks are wired into the log at open time, so
// even the replay-on-open fsyncs are observed.
func WithObserver(o *Observer) Option {
	return func(opts *options) { opts.Observer = o }
}

// logger returns the observer's logger, or a nil-safe discard.
func (o *Observer) logger() *slog.Logger {
	if o == nil || o.Logger == nil {
		return nil
	}
	return o.Logger
}

// observeCompaction reports one real compaction run to the observer's hook
// and logger; the log line splits the rebuild into its phases, the hook gets
// the total: merge_ms is the sort of the live delta coverings
// (MergeDuration), and trie_ms the base trie's cells streamed through the
// merge's forward pass with them into the trie builder (InsertDuration). A
// compaction sorts only the delta: the base's cells arrive in order. Safe
// on a nil receiver index observer.
func (ix *Index) observeCompaction(d time.Duration, rebuilt BuildStats, err error) {
	o := ix.obs
	if o == nil {
		return
	}
	if o.OnCompaction != nil {
		o.OnCompaction(d, err)
	}
	if l := o.logger(); l != nil {
		if err != nil {
			l.Error("compaction failed",
				slog.Duration("duration", d),
				slog.String("error", err.Error()))
			return
		}
		st := ix.Status()
		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
		l.Info("compaction",
			slog.Duration("duration", d),
			slog.Float64("merge_ms", ms(rebuilt.MergeDuration)),
			slog.Float64("trie_ms", ms(rebuilt.InsertDuration)),
			slog.Int("live_polygons", st.Live),
			slog.Int("residual_pending", st.DeltaPolygons+st.Tombstones),
			slog.Uint64("compactions", st.Compactions))
	}
}
