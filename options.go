package act

// Option configures New. Options are applied in order, so later options
// override earlier ones.
type Option func(*options)

// WithPrecision sets the precision bound ε in meters: the maximum distance
// between the partners of a false-positive join pair. Every index needs a
// precision; New fails without one.
func WithPrecision(meters float64) Option {
	return func(o *options) { o.PrecisionMeters = meters }
}

// WithGrid selects the hierarchical grid underlying the index (default
// PlanarGrid).
func WithGrid(k GridKind) Option {
	return func(o *options) { o.Grid = k }
}

// WithFanout sets the trie fanout: 4, 16, 64, or 256 (default 256, the
// paper's choice and the best lookup latency).
func WithFanout(n int) Option {
	return func(o *options) { o.Fanout = n }
}

// WithGeometryStore controls whether the index keeps the exact polygon
// geometry (default true). The geometry store backs candidate refinement —
// Exact-mode lookups and joins — at the cost of holding every ring in
// memory alongside the trie. Passing false builds an approximate-only
// index: lookups still honour the precision bound, but candidates can never
// be resolved — every Exact-mode read reports ErrNoGeometry.
func WithGeometryStore(on bool) Option {
	return func(o *options) { o.SkipGeometryStore = !on }
}

// WithDeltaThreshold sets the pending-mutation count (inserts plus removals
// since the base trie was built, so an insert removed before compaction
// counts twice; Status's DeltaPolygons plus Tombstones) at which Insert and
// Remove trigger a background compaction:
// the delta layer is folded into a freshly rebuilt base trie and the result
// swung in atomically, without blocking readers. Regardless of the
// threshold, a delta exceeding a quarter of the live polygon count also
// triggers compaction, so small indexes never carry proportionally huge
// deltas.
//
// n = 0 (the default) selects 128 — small enough that the delta trie stays
// cache-resident next to the base, large enough to amortize one rebuild
// over many mutations. Negative n disables auto-compaction entirely;
// the delta then grows until an explicit [Index.Compact] call, which is
// what deterministic tests and bulk-load-then-compact pipelines want.
func WithDeltaThreshold(n int) Option {
	return func(o *options) { o.DeltaThreshold = n }
}

// WithWAL attaches a write-ahead delta log to the index: every Insert and
// Remove appends its record to cfg.Path — and, per cfg.Policy, reaches
// stable storage — before the mutation is acknowledged or served, so a
// crashed process can rebuild its exact mutation state. Records a previous
// process left in the log are replayed onto the fresh build during New
// (deterministically: replayed inserts keep their original ids and
// sequence numbers), which is the restart story for a build-from-polygons
// deployment: run New with the same polygon set and the same log, and the
// index comes back as it was.
//
// With cfg.SnapshotPath set, every compaction checkpoints: the compacted
// base is written there atomically and the log truncated to the residual.
// [Recover] resumes from such a snapshot without the polygon set. See
// WALConfig for the knobs and the "Durability & crash recovery" section of
// the README for the full model.
func WithWAL(cfg WALConfig) Option {
	return func(o *options) { o.WAL = &cfg }
}

// applyOptions folds opts, in order, into a fresh options value.
func applyOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}
