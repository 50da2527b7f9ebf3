package act

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/core"
	"github.com/actindex/act/internal/delta"
	"github.com/actindex/act/internal/geojson"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/geostore"
	"github.com/actindex/act/internal/supercover"
	"github.com/actindex/act/internal/wal"
)

// Live index mutation.
//
// The index absorbs polygon churn LSM-style: Insert covers the new polygon
// with the index's own coverer and adds it to a small delta layer (its own
// trie plus the projected geometry); Remove tombstones the id. Every
// lookup — scalar, batch, and interleaved — merges base and delta:
// tombstoned ids are filtered from the base trie's result, delta references
// appended after it. When the pending-mutation count crosses the
// compaction threshold, a background compactor reruns the full build
// pipeline over the surviving polygon set (original ids kept, removed ids
// left as holes) and swings the fresh base in atomically through the
// index's epoch Holder — readers never block, and an in-flight join keeps
// the epoch it loaded for its whole run. Mutations that land while the
// compactor runs survive as a residual overlay on the new base.

// Mutation errors.
var (
	// ErrImmutable is reported by Insert, Remove, and Compact on an index
	// that was loaded with ReadIndex or OpenIndex. Build the index
	// in-process with [New] or resurrect it with [Recover] to mutate it.
	ErrImmutable = errors.New("act: index was deserialized without source polygons and cannot be mutated")
	// ErrUnknownPolygon is reported by Remove for an id that was never
	// assigned or has already been removed.
	ErrUnknownPolygon = errors.New("act: unknown or already-removed polygon id")
	// ErrNoCheckpoint is reported by Checkpoint on an index without an
	// attached WAL and snapshot path — there is nowhere to checkpoint to.
	ErrNoCheckpoint = errors.New("act: checkpoint needs a WAL with a snapshot path")
)

// DeltaStats describes the state of the index's mutation layer.
type DeltaStats struct {
	// DeltaPolygons is the number of polygons currently served from the
	// delta layer (inserted since the last compaction).
	DeltaPolygons int
	// Tombstones is the number of removals pending compaction.
	Tombstones int
	// Pending is DeltaPolygons + Tombstones — the quantity measured
	// against Threshold.
	Pending int
	// Threshold is the pending-mutation count that triggers background
	// compaction; negative means auto-compaction is disabled.
	Threshold int
	// Compactions counts completed compactions over the index lifetime.
	Compactions uint64
	// LivePolygons is the current live polygon count (NumPolygons).
	LivePolygons int
}

// DeltaStats returns the current state of the mutation layer. The overlay
// counters are read from one epoch, so they are mutually consistent.
func (ix *Index) DeltaStats() DeltaStats {
	ep := ix.live.Load()
	return DeltaStats{
		DeltaPolygons: ep.ov.NumPolygons(),
		Tombstones:    ep.ov.NumTombstones(),
		Pending:       ep.ov.Pending(),
		Threshold:     ix.deltaThreshold,
		Compactions:   ix.compactions.Load(),
		LivePolygons:  ix.NumPolygons(),
	}
}

// Mutable reports whether the index can absorb Insert and Remove: true for
// indexes built in-process or resurrected by Recover, false for indexes
// loaded with ReadIndex/OpenIndex and for replication followers (whose
// mutations arrive from the primary's log stream, not from clients).
func (ix *Index) Mutable() bool { return ix.mutable && !ix.follower }

// IsDelta reports whether the polygon id is currently served from the
// delta layer rather than the base trie. After a compaction folds the
// delta into the base, IsDelta reports false for the absorbed ids — the
// distinction is an observability aid (actquery -verbose tags matches with
// it), not a semantic one.
func (ix *Index) IsDelta(id uint32) bool { return ix.live.Load().ov.HasPolygon(id) }

// Epoch returns the generation of the serving state: it advances on every
// Insert, Remove, and compaction, so operators can observe mutation
// progress the way Swappable generations expose index swaps.
func (ix *Index) Epoch() uint64 { return ix.live.Generation() }

// Insert adds a polygon to the live index and returns its id — the next id
// in the sequence started by the build (ids are never reused, so removed
// ids stay dangling forever). The polygon is covered with the index's own
// precision and grid, served from the delta layer immediately on return,
// and folded into the base trie by the next compaction. Concurrent lookups
// and joins are never blocked: they keep the epoch they loaded, and the
// new polygon becomes visible to operations that start after Insert
// returns. Inserts are serialized with other mutations; the covering
// computation (the dominant cost) runs under that lock, so sustained bulk
// loads should prefer a rebuild via [Swappable].
//
// Reports ErrImmutable on a deserialized index.
func (ix *Index) Insert(ctx context.Context, p *Polygon) (uint32, error) {
	if p == nil {
		return 0, fmt.Errorf("act: insert: nil polygon")
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ix.mutable {
		return 0, ErrImmutable
	}
	if ix.follower {
		return 0, ErrFollower
	}
	if err := ix.writableLocked(); err != nil {
		return 0, err
	}
	if len(ix.alive) > supercover.MaxPolygonID {
		return 0, fmt.Errorf("act: insert: the 2^30 polygon id space is exhausted")
	}
	cov, gp, err := ix.pl.cover(p)
	if err != nil {
		return 0, fmt.Errorf("act: insert: %w", err)
	}
	id := uint32(len(ix.alive))
	ep := ix.live.Load()
	ov, err := ep.ov.WithInsert(ix.pl.fanout, delta.Poly{ID: id, Cov: cov, Geom: gp, Seq: ix.seq + 1})
	if err != nil {
		return 0, err
	}
	// Write-ahead: the record must be durably logged (per the fsync
	// policy) before the mutation is acknowledged or served. On append
	// failure nothing below commits, so log and index stay consistent.
	if ix.wal != nil {
		var buf bytes.Buffer
		if err := geojson.WritePolygons(&buf, []*Polygon{p}); err != nil {
			return 0, fmt.Errorf("act: insert: encoding WAL record: %w", err)
		}
		rec := wal.Record{Type: wal.TypeInsert, Seq: ix.seq + 1, ID: id, Data: buf.Bytes()}
		if err := ix.wal.Append(rec); err != nil {
			if ix.wal.Err() != nil {
				err = fmt.Errorf("%w: %w", ErrWALFailed, err)
			}
			return 0, fmt.Errorf("act: insert: %w", err)
		}
	}
	ix.seq++
	ix.alive = append(ix.alive, true)
	if ix.srcComplete {
		ix.sources = append(ix.sources, p)
	}
	ix.idSpace.Store(int64(len(ix.alive)))
	ix.liveCount.Add(1)
	ix.live.Swap(&epoch{trie: ep.trie, store: ep.store, ov: ov, stats: ep.stats})
	ix.maybeCompact(ov)
	return id, nil
}

// Remove deletes the polygon with the given id from the live index. The id
// is tombstoned: lookups that start after Remove returns stop reporting
// it, in-flight operations keep the epoch they loaded, and the next
// compaction rebuilds the base without it (the id itself is never reused).
//
// Reports ErrUnknownPolygon for ids never assigned or already removed, and
// ErrImmutable on a deserialized index.
func (ix *Index) Remove(ctx context.Context, id uint32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ix.mutable {
		return ErrImmutable
	}
	if ix.follower {
		return ErrFollower
	}
	if err := ix.writableLocked(); err != nil {
		return err
	}
	if int(id) >= len(ix.alive) || !ix.alive[id] {
		return fmt.Errorf("%w: %d", ErrUnknownPolygon, id)
	}
	ep := ix.live.Load()
	ov, err := ep.ov.WithRemove(ix.pl.fanout, id, ix.seq+1)
	if err != nil {
		return err
	}
	if ix.wal != nil {
		rec := wal.Record{Type: wal.TypeRemove, Seq: ix.seq + 1, ID: id}
		if err := ix.wal.Append(rec); err != nil {
			if ix.wal.Err() != nil {
				err = fmt.Errorf("%w: %w", ErrWALFailed, err)
			}
			return fmt.Errorf("act: remove: %w", err)
		}
	}
	ix.seq++
	ix.alive[id] = false
	if ix.srcComplete {
		ix.sources[id] = nil
	}
	ix.liveCount.Add(-1)
	ix.live.Swap(&epoch{trie: ep.trie, store: ep.store, ov: ov, stats: ep.stats})
	ix.maybeCompact(ov)
	return nil
}

// maybeCompact, called under ix.mu after a mutation published ov, starts a
// background compaction when the pending-mutation count crosses the
// absolute threshold or a quarter of the live polygon count (the ratio
// trigger keeps small indexes from carrying proportionally huge deltas).
// At most one compaction runs at a time; a trigger that fires while one is
// running is simply dropped — the running compaction's residual check will
// re-trigger on the next mutation if needed.
func (ix *Index) maybeCompact(ov *delta.Overlay) {
	if ix.deltaThreshold < 0 || ov == nil {
		return
	}
	pending := ov.Pending()
	if pending < ix.deltaThreshold && int64(pending*4) < ix.liveCount.Load() {
		return
	}
	if !ix.compactMu.TryLock() {
		return
	}
	go func() {
		defer ix.compactMu.Unlock()
		// Background compaction failing (an unprojectable polygon cannot
		// happen here: every source already passed Insert or the build)
		// leaves the delta serving correctly; nothing to surface beyond
		// the stats not moving.
		_ = ix.compactLocked(context.Background())
	}()
}

// Compact synchronously folds the delta layer into a fresh base and swings
// the result in atomically. Indexes that carry their source polygons (built
// in-process) rerun the full build pipeline over the surviving set (original
// ids kept; removed ids become permanent holes). Indexes without sources —
// resurrected by [Recover] or serving as replication followers — rebuild
// from the live epoch instead: the base trie's cells are re-enumerated with
// tombstoned references dropped, the delta coverings merged on top, and the
// geometry store reassembled from the existing stores. Either way lookups
// and joins keep serving the old epoch until the swap and are never blocked;
// mutations stay possible while the rebuild runs and survive it as a
// residual delta. If a background compaction is already running, Compact
// waits for it and then compacts any residual. On a clean index it is a
// no-op.
//
// Reports ErrImmutable on a deserialized index; on context cancellation
// the rebuild is abandoned and the live state left untouched.
func (ix *Index) Compact(ctx context.Context) error {
	ix.compactMu.Lock()
	defer ix.compactMu.Unlock()
	return ix.compactLocked(ctx)
}

// Checkpoint forces the durability pair current: it writes a checkpoint
// snapshot of the present state to the configured snapshot path and rotates
// the write-ahead log down to it. With pending mutations it is exactly a
// Compact (whose checkpoint-on-compaction does the same); on a clean index
// it serializes the current base as-is — the path that gives a
// never-mutated primary a snapshot for followers to bootstrap from.
//
// Reports ErrNoCheckpoint when the index has no WAL or no snapshot path,
// and ErrImmutable on a deserialized index.
func (ix *Index) Checkpoint(ctx context.Context) error {
	ix.compactMu.Lock()
	defer ix.compactMu.Unlock()

	ix.mu.Lock()
	if !ix.mutable {
		ix.mu.Unlock()
		return ErrImmutable
	}
	if ix.wal == nil || ix.snapshotPath == "" {
		ix.mu.Unlock()
		return ErrNoCheckpoint
	}
	ep := ix.live.Load()
	if ep.ov != nil {
		ix.mu.Unlock()
		return ix.compactLocked(ctx) // compaction checkpoints as it lands
	}
	snapSeq := ix.seq
	ids := aliveIDs(ix.alive)
	idSpace := len(ix.alive)
	ix.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}

	// The clean epoch is immutable: serialize it outside the mutation lock.
	var idCol []uint32
	if len(ids) != idSpace {
		idCol = ids
	}
	snapTmp, err := stageSnapshot(ix.snapshotPath, ep, ix.kind, ix.precision, idCol, int64(idSpace))
	if err != nil {
		return fmt.Errorf("act: checkpoint: staging snapshot: %w", err)
	}
	defer os.Remove(snapTmp) // no-op once renamed into place

	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := commitSnapshot(snapTmp, ix.snapshotPath); err != nil {
		return fmt.Errorf("act: checkpoint: publishing snapshot: %w", err)
	}
	// Mutations may have landed between the snapshot of snapSeq and here;
	// rotation keeps every record above the floor, so they survive.
	if err := ix.wal.Checkpoint(snapSeq); err != nil {
		return fmt.Errorf("act: checkpoint: rotating WAL: %w", err)
	}
	return nil
}

// aliveIDs collects the live polygon ids, ascending.
func aliveIDs(alive []bool) []uint32 {
	ids := make([]uint32, 0, len(alive))
	for id, a := range alive {
		if a {
			ids = append(ids, uint32(id))
		}
	}
	return ids
}

// compactLocked runs one compaction; the caller holds compactMu.
func (ix *Index) compactLocked(ctx context.Context) (err error) {
	// Snapshot the mutation state: the overlay publication point and the
	// inputs it corresponds to. Mutations after this point are not baked
	// into the rebuild; Rebase re-applies them on top.
	ix.mu.Lock()
	if !ix.mutable {
		ix.mu.Unlock()
		return ErrImmutable
	}
	ep := ix.live.Load()
	if ep.ov == nil {
		ix.mu.Unlock()
		return nil
	}
	snapSeq := ix.seq
	srcComplete := ix.srcComplete
	idSpace := len(ix.alive)
	var srcs []*Polygon
	var ids []uint32
	if srcComplete {
		srcs = make([]*Polygon, len(ix.sources))
		copy(srcs, ix.sources)
	} else {
		ids = aliveIDs(ix.alive)
	}
	ix.mu.Unlock()

	// Past the no-op checks: this run will rebuild the base, so it counts
	// for the observer (duration covers rebuild + swap + checkpoint).
	compactStart := time.Now()
	var stats BuildStats
	defer func() { ix.observeCompaction(time.Since(compactStart), stats, err) }()

	var trie *core.Trie
	var store *geostore.Store
	if srcComplete {
		entries := make([]buildEntry, 0, len(srcs))
		ids = make([]uint32, 0, len(srcs))
		for id, src := range srcs {
			if src != nil {
				entries = append(entries, buildEntry{id: uint32(id), src: src})
				ids = append(ids, uint32(id))
			}
		}
		trie, store, stats, err = ix.pl.run(ctx, entries, idSpace)
	} else {
		// No sources (recovered index or replication follower): rebuild
		// from the epoch itself — base cells plus delta coverings.
		trie, store, stats, err = ix.compactEpoch(ctx, ep, ids, idSpace)
	}
	if err != nil {
		return err
	}

	// Stage the checkpoint snapshot before taking the mutation lock: the
	// compacted epoch is immutable, so the expensive file write needs no
	// exclusion — only the rename + log rotation below does.
	fresh := &epoch{trie: trie, store: store, stats: stats}
	var snapTmp string
	if ix.wal != nil && ix.snapshotPath != "" {
		var idCol []uint32
		if len(ids) != idSpace {
			idCol = ids // sparse: the snapshot needs the v4 id column
		}
		snapTmp, err = stageSnapshot(ix.snapshotPath, fresh, ix.kind, ix.precision, idCol, int64(idSpace))
		if err != nil {
			return fmt.Errorf("act: compact: staging checkpoint snapshot: %w", err)
		}
		defer os.Remove(snapTmp) // no-op once renamed into place
	}

	ix.mu.Lock()
	defer ix.mu.Unlock()
	cur := ix.live.Load()
	residual, err := cur.ov.Rebase(snapSeq)
	if err != nil {
		return err
	}
	ix.live.Swap(&epoch{trie: trie, store: store, ov: residual, stats: stats})
	ix.compactions.Add(1)
	// Checkpoint: publish the staged snapshot, then truncate the log down
	// to the records the snapshot does not cover. Order matters — the
	// snapshot must be durably linked before any log record is dropped; a
	// crash between the two leaves snapshot + full log, which replays
	// idempotently. An error here does not undo the in-memory compaction
	// (the epoch already swung); the log simply keeps its full history.
	if snapTmp != "" {
		if err := commitSnapshot(snapTmp, ix.snapshotPath); err != nil {
			return fmt.Errorf("act: compact: publishing checkpoint snapshot: %w", err)
		}
		if err := ix.wal.Checkpoint(snapSeq); err != nil {
			return fmt.Errorf("act: compact: rotating WAL: %w", err)
		}
	}
	return nil
}

// compactEpoch rebuilds a fresh base from the serving epoch itself, for
// indexes that carry no source polygons: the base trie's covering cells are
// re-enumerated with tombstoned references filtered out and fed straight
// into the super-covering merge (supercover.Builder.AddCell), the delta
// polygons' retained coverings are merged on top through the normal Add
// path, and the geometry store is reassembled by id from the base store and
// the delta geometry. No covering is recomputed, so the result preserves
// each polygon's cells exactly as the process that originally covered it
// built them. ids is the live id set the rebuild must serve.
func (ix *Index) compactEpoch(ctx context.Context, ep *epoch, ids []uint32, idSpace int) (*core.Trie, *geostore.Store, BuildStats, error) {
	defer ix.keepMapped() // the walk may read a file-mapped arena
	var stats BuildStats
	stats.NumPolygons = len(ids)
	// The epoch's recorded precision covers the base polygons; delta
	// coverings can only have been built at the index's own bound, so the
	// max below stays a faithful worst case (an upper bound when the worst
	// polygon has since been removed).
	stats.AchievedPrecisionMeters = ep.stats.AchievedPrecisionMeters

	start := time.Now()
	var scb supercover.Builder
	var keep []supercover.Ref
	err := ep.trie.Cells(func(cell cellid.ID, refs []supercover.Ref) error {
		keep = keep[:0]
		for _, r := range refs {
			if !ep.ov.Tombstoned(r.PolygonID) {
				keep = append(keep, r)
			}
		}
		if len(keep) == 0 {
			return nil // every referencing polygon was removed
		}
		return scb.AddCell(cell, keep)
	})
	if err != nil {
		return nil, nil, stats, fmt.Errorf("act: compact: enumerating base cells: %w", err)
	}
	for _, p := range ep.ov.Polys() {
		if err := scb.Add(p.ID, p.Cov); err != nil {
			return nil, nil, stats, fmt.Errorf("act: compact: merging delta polygon %d: %w", p.ID, err)
		}
		if p.Cov.AchievedPrecisionMeters > stats.AchievedPrecisionMeters {
			stats.AchievedPrecisionMeters = p.Cov.AchievedPrecisionMeters
		}
	}
	sc := scb.Build()
	stats.MergeDuration = time.Since(start)
	stats.IndexedCells = sc.NumCells()
	if err := ctx.Err(); err != nil {
		return nil, nil, stats, err
	}

	start = time.Now()
	trie, err := core.Build(sc, core.Config{Fanout: ix.pl.fanout})
	if err != nil {
		return nil, nil, stats, err
	}
	stats.InsertDuration = time.Since(start)

	var store *geostore.Store
	if ix.pl.hasGeom {
		projected := make([]*geom.Polygon, idSpace)
		for _, id := range ids {
			projected[id] = ep.store.Polygon(id) // nil for delta ids
		}
		for _, p := range ep.ov.Polys() {
			projected[p.ID] = p.Geom
		}
		store = geostore.NewSparse(projected)
	}

	ts := trie.ComputeStats()
	stats.TrieBytes = ts.TrieBytes
	stats.TableBytes = ts.TableBytes
	stats.TrieNodes = ts.NumNodes
	return trie, store, stats, nil
}
