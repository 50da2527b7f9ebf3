package act

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/delta"
	"github.com/actindex/act/internal/fault"
	"github.com/actindex/act/internal/geojson"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/geostore"
	"github.com/actindex/act/internal/supercover"
	"github.com/actindex/act/internal/wal"
)

// Live index mutation.
//
// The index absorbs polygon churn LSM-style, with each fact recorded once in
// the epoch. Insert covers the new polygon with the index's own coverer,
// adds the covering to a small delta trie (delta.Overlay) and its projected
// geometry to the epoch's geometry store; Remove clears the id in the
// epoch's live-id set (ids are never reused, so that set is the tombstone
// set) and leaves a hole in the store. Every lookup — scalar and batch —
// merges base and delta: delta references are appended after the base
// trie's, and every reference is filtered through the live-id set. A
// removal publishes a new live-id set and store and shares the previous
// delta trie; only an insert rebuilds that trie. When the pending-mutation
// count crosses the compaction threshold, a background compactor merges the
// base trie's surviving cells with the live delta coverings into a fresh
// base (original ids kept, removed ids left as holes; nothing is
// re-covered): the delta coverings are sorted, and the base cells stream out
// of the base trie in order and are merged as they are read, the way an LSM
// tree merges sorted runs. It swings the fresh base in atomically through
// the index's epoch Holder — readers never block, and an in-flight join
// keeps the epoch it loaded for its whole run. Mutations that land while the compactor runs survive
// as a residual overlay on the new base.
//
// The index's state — trie, geometry, overlay, id set and sequence — is one
// epoch, and every state change goes through one of three functions: publish
// (the epoch stage built from Insert, Remove, WAL replay or a replicated
// batch), compactLocked (the compacted base, with the checkpoint every
// compaction ends in, Promote's included), and Promote (the role change).

// Mutation errors.
var (
	// ErrImmutable is reported by Insert, Remove, Compact, and Checkpoint on
	// an index that was loaded with ReadIndex or OpenIndex, which are
	// read-only by role. Build the index in-process with [New] or resurrect
	// a file with [Recover] to mutate it.
	ErrImmutable = errors.New("act: index was loaded read-only (ReadIndex/OpenIndex) and cannot be mutated")
	// ErrUnknownPolygon is reported by Remove for an id that was never
	// assigned or has already been removed.
	ErrUnknownPolygon = errors.New("act: unknown or already-removed polygon id")
	// ErrNoCheckpoint is reported by Checkpoint on an index without an
	// attached WAL and snapshot path — there is nowhere to checkpoint to.
	ErrNoCheckpoint = errors.New("act: checkpoint needs a WAL with a snapshot path")
)

// IsDelta reports whether the polygon id is currently served from the
// delta layer rather than the base trie. After a compaction folds the
// delta into the base, IsDelta reports false for the absorbed ids — the
// distinction is an observability aid (actquery -verbose tags matches with
// it), not a semantic one. A removed id is never a delta id.
func (ix *Index) IsDelta(id uint32) bool {
	ep := ix.live.Load()
	return int(id) >= ep.firstDelta() && int(id) < len(ep.alive) && ep.alive[id]
}

// Insert adds a polygon to the live index and returns its id — the next id
// in the sequence started by the build (ids are never reused, so removed
// ids stay dangling forever). The polygon is covered with the index's own
// precision and grid, served from the delta layer immediately on return,
// and folded into the base trie by the next compaction. Concurrent lookups
// and joins are never blocked: they keep the epoch they loaded, and the
// new polygon becomes visible to operations that start after Insert
// returns. Inserts are serialized with other mutations, and each one
// rebuilds the delta trie over every insert since the last compaction under
// that lock: that rebuild, not the covering, is the dominant cost once
// inserts are pending (on 3 920 census zones at 60 m the repository
// benchmark's traced act.insert_ms_at_overlay_0 and _64 rows read
// 0.055–0.078 ms and 0.39–0.44 ms, on a host whose bench.host_alu_ms reads
// 49 and bench.host_memchase_ns 119–140). Sustained bulk loads should prefer
// a rebuild via [Swappable].
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
	log, err := ix.writableLocked()
	if err != nil {
		return 0, err
	}
	ep := ix.live.Load()
	rec := wal.Record{Type: wal.TypeInsert, Seq: ep.seq + 1, ID: uint32(len(ep.alive))}
	next, err := ix.stage([]wal.Record{rec}, p)
	if err != nil {
		return 0, fmt.Errorf("act: insert: %w", err)
	}
	if log != nil {
		var buf bytes.Buffer
		if err := geojson.WritePolygons(&buf, []*Polygon{p}); err != nil {
			return 0, fmt.Errorf("act: insert: encoding WAL record: %w", err)
		}
		rec.Data = buf.Bytes()
	}
	if err := logRecord(log, rec); err != nil {
		return 0, fmt.Errorf("act: insert: %w", err)
	}
	ix.maybeCompact(ix.publish(next))
	return rec.ID, nil
}

// Remove deletes the polygon with the given id from the live index. The id
// leaves the index's live-id set and its geometry the store: lookups that
// start after Remove returns stop reporting it, in-flight operations keep
// the epoch they loaded, and the next compaction rebuilds the base without
// it (the id itself is never reused). Remove shares the delta trie instead
// of rebuilding it, so it does not pay Insert's rebuild cost.
//
// Reports ErrUnknownPolygon for ids never assigned or already removed, and
// ErrImmutable on a deserialized index.
func (ix *Index) Remove(ctx context.Context, id uint32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	log, err := ix.writableLocked()
	if err != nil {
		return err
	}
	ep := ix.live.Load()
	if int(id) >= len(ep.alive) || !ep.alive[id] {
		return fmt.Errorf("%w: %d", ErrUnknownPolygon, id)
	}
	rec := wal.Record{Type: wal.TypeRemove, Seq: ep.seq + 1, ID: id}
	next, err := ix.stage([]wal.Record{rec}, nil)
	if err != nil {
		return fmt.Errorf("act: remove: %w", err)
	}
	if err := logRecord(log, rec); err != nil {
		return fmt.Errorf("act: remove: %w", err)
	}
	ix.maybeCompact(ix.publish(next))
	return nil
}

// logRecord is the write-ahead step between stage and publish: the record
// must be durably logged (per the fsync policy) before the mutation is
// acknowledged or served. On failure the caller publishes nothing, so log
// and index stay consistent. A no-op without a WAL.
func logRecord(log *wal.Log, rec wal.Record) error {
	if log == nil {
		return nil
	}
	err := log.Append(rec)
	if err != nil && log.Err() != nil {
		err = fmt.Errorf("%w: %w", ErrWALFailed, err)
	}
	return err
}

// stage works out the epoch a batch of log records leads to — the one decoder
// of the log's mutation semantics. Insert and Remove stage the record they
// are about to log, WAL replay the records it recovered, a follower the batch
// streamed from its primary, so all converge on the same state from the same
// records. Inserts are covered through the index's own pipeline (poly, when
// non-nil, is the batch's insert already decoded: Insert has the polygon in
// hand and encodes it only once the overlay has built) and their geometry
// enters the store; removes clear the id in the live-id set and leave a hole
// in the store; checkpoint records are rotation markers and carry no
// mutation.
//
// Application is idempotent, keyed on the fact that polygon ids are never
// reused: an insert whose id already exists and a remove of an id that is not
// alive are skipped, so the same records apply correctly over a fresh build,
// a checkpoint snapshot older or newer than the log's floor, or a stream that
// overlaps after a reconnect. An id gap, a payload that is not exactly one
// polygon, an unknown record type, and an exhausted id space fail the batch.
//
// stage has no side effects. It works on copies of the live-id set and the
// store — readers may hold the epoch, and a batch failing mid-way must leave
// no trace (a remove re-applied later would be skipped as already-dead and
// lost) — and rebuilds the delta trie once per batch with inserts, not per
// record; a batch of removes shares the previous trie. It returns nil when
// every record was skipped: pure overlap changes nothing, the sequence
// position included. The caller holds ix.mu and keeps it until it has
// published.
func (ix *Index) stage(records []wal.Record, poly *Polygon) (*epoch, error) {
	cur := ix.live.Load()
	var added []delta.Poly
	var geoms []*geom.Polygon
	var faces []uint8
	if cur.store != nil {
		geoms, faces = cur.store.Slots(len(records))
	}
	next := *cur
	next.alive = append(make([]bool, 0, len(cur.alive)+len(records)), cur.alive...)
	changed := false
	for i, rec := range records {
		switch rec.Type {
		case wal.TypeCheckpoint:
			continue // rotation marker: its mutations precede it in the log
		case wal.TypeInsert:
			if int(rec.ID) < len(next.alive) {
				continue // already present: the base is newer than this record
			}
			if int(rec.ID) != len(next.alive) {
				return nil, fmt.Errorf("record %d: insert id %d would leave a gap (id space is %d)", i, rec.ID, len(next.alive))
			}
			if len(next.alive) > supercover.MaxPolygonID {
				return nil, fmt.Errorf("record %d: the 2^30 polygon id space is exhausted", i)
			}
			p := poly
			if p == nil {
				ps, err := geojson.ReadPolygons(bytes.NewReader(rec.Data))
				if err != nil {
					return nil, fmt.Errorf("record %d (insert %d): %w", i, rec.ID, err)
				}
				if len(ps) != 1 {
					return nil, fmt.Errorf("record %d (insert %d): record carries %d polygons, want 1", i, rec.ID, len(ps))
				}
				p = ps[0]
			}
			cov, face, gp, err := ix.pl.cover(p)
			if err != nil {
				return nil, fmt.Errorf("record %d (insert %d): %w", i, rec.ID, err)
			}
			added = append(added, delta.Poly{ID: rec.ID, Cov: cov, Seq: rec.Seq})
			if cur.store != nil {
				geoms, faces = append(geoms, gp), append(faces, uint8(face))
			}
			next.alive = append(next.alive, true)
			next.live++
		case wal.TypeRemove:
			if int(rec.ID) >= len(next.alive) || !next.alive[rec.ID] {
				continue // already gone: the removal predates the base
			}
			next.alive[rec.ID] = false
			next.live--
			next.removed++
			if cur.store != nil {
				geoms[rec.ID] = nil
			}
		default:
			return nil, fmt.Errorf("record %d: unexpected record type %d", i, rec.Type)
		}
		next.seq = max(next.seq, rec.Seq)
		changed = true
	}
	if !changed {
		return nil, nil
	}
	if cur.store != nil {
		next.store = geostore.NewSparse(geoms, faces)
	}
	if len(added) == 0 {
		next.ov = cur.ov.WithAlive(next.liveFilter())
		return &next, nil
	}
	n := cur.ov.NumPolygons()
	var err error
	if next.ov, err = delta.New(ix.pl.fanout, append(cur.ov.Polys()[:n:n], added...), next.liveFilter()); err != nil {
		return nil, err
	}
	return &next, nil
}

// publish makes the epoch stage built the index's state — the only place a
// mutation swings the epoch — and returns it for maybeCompact; a nil epoch
// (stage changed nothing) publishes nothing. The caller has held ix.mu since
// it called stage.
func (ix *Index) publish(next *epoch) *epoch {
	if next != nil {
		ix.live.Swap(next)
	}
	return next
}

// maybeCompact, called under ix.mu after a mutation published ep, starts a
// background compaction when the pending-mutation count crosses the
// absolute threshold or a quarter of the live polygon count (the ratio
// trigger keeps small indexes from carrying proportionally huge deltas).
// At most one compaction runs at a time; a trigger that fires while one is
// running is simply dropped — the next mutation fires it again if needed.
func (ix *Index) maybeCompact(ep *epoch) {
	if ix.deltaThreshold < 0 || ep == nil {
		return
	}
	pending := ep.ov.NumPolygons() + ep.removed // inserts since the base, removed ones included, plus removals
	if pending < ix.deltaThreshold && pending*4 < ep.live {
		return
	}
	if !ix.compactMu.TryLock() {
		return
	}
	go func() {
		defer ix.compactMu.Unlock()
		// A failed background compaction leaves the delta serving
		// correctly; the observer hears of it, the next mutation retries.
		_ = ix.compactLocked(context.Background(), false)
	}()
}

// Compact synchronously folds the delta layer into a fresh base and swings
// the result in atomically. The rebuild reads the live epoch, not polygons:
// the base trie's cells are re-enumerated with removed polygons' references
// dropped and the live delta coverings merged on top, while the geometry
// store, which every mutation already keeps current, is kept as it is
// (original ids kept; removed ids are permanent holes). Lookups and joins
// keep serving the old epoch until the swap and are never blocked;
// mutations stay possible while the rebuild runs and survive it as a
// residual delta. If a background
// compaction is already running, Compact waits for it and then compacts any
// residual. On a clean index it is a no-op.
//
// Reports ErrImmutable on a deserialized index; on context cancellation
// the rebuild is abandoned and the live state left untouched.
func (ix *Index) Compact(ctx context.Context) error {
	ix.compactMu.Lock()
	defer ix.compactMu.Unlock()
	return ix.compactLocked(ctx, false)
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
	rs := ix.rs.Load()
	if rs.role == readOnly {
		return ErrImmutable
	}
	if rs.wal == nil || rs.snapshotPath == "" {
		return ErrNoCheckpoint
	}
	return ix.compactLocked(ctx, true)
}

// compactLocked runs one compaction; the caller holds compactMu, so the role
// cannot change underneath. A clean index has nothing to fold and is left
// alone, unless evenClean asks for the checkpoint a compaction ends with
// anyway (Checkpoint, Promote). The checkpoint writes a snapshot whenever the
// role has a snapshot path, and rotates the log when one is attached.
func (ix *Index) compactLocked(ctx context.Context, evenClean bool) (err error) {
	rs := ix.rs.Load()
	if rs.role == readOnly {
		return ErrImmutable
	}
	// Mutations after this point are not baked into the rebuild; the
	// residual overlay re-applies them on top.
	ep := ix.live.Load()
	fresh := ep
	if ep.ov != nil {
		// This run rebuilds the base, so it counts for the observer
		// (duration covers rebuild + swap + checkpoint).
		start := time.Now()
		var rebuilt BuildStats
		defer func() { ix.observeCompaction(time.Since(start), rebuilt, err) }()
		if fresh, err = ix.compactEpoch(ctx, ep); err != nil {
			return err
		}
		rebuilt = fresh.stats
	} else if !evenClean {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// Epochs are immutable, so the expensive snapshot write and its fsync
	// need no lock; ix.mu covers the cheap part: the swap, the rename and
	// the rotation.
	var snap *fault.Replacement
	if rs.snapshotPath != "" {
		snap, err = fault.Stage(rs.fs, rs.snapshotPath, func(w io.Writer) error {
			_, err := ix.writeFlat(w, fresh)
			return err
		})
		if err != nil {
			return fmt.Errorf("act: compact: staging checkpoint snapshot: %w", err)
		}
		defer snap.Discard()
	}

	ix.mu.Lock()
	defer ix.mu.Unlock()
	if fresh != ep {
		// The residual is the inserts since the snapshot, the ids from
		// len(ep.alive) on; it filters through the live-id set only if
		// removals landed since the snapshot too.
		cur := ix.live.Load()
		next := *cur
		next.removed = cur.removed - ep.removed
		residual, err := delta.New(ix.pl.fanout, cur.ov.Polys()[len(ep.alive)-cur.firstDelta():], next.liveFilter())
		if err != nil {
			return err
		}
		next.trie, next.stats, next.ov = fresh.trie, fresh.stats, residual
		next.compactions++
		ix.live.Swap(&next)
	}
	// Checkpoint: publish the snapshot written above, then truncate the log
	// down to the records it does not cover (mutations since ep are above
	// that floor and survive). Order matters — a crash between the two
	// leaves snapshot + full log, which replays idempotently. An error here
	// does not undo the in-memory compaction (the epoch already swung); the
	// log simply keeps its full history.
	if snap != nil {
		if err := snap.Commit(); err != nil {
			return fmt.Errorf("act: compact: publishing checkpoint snapshot: %w", err)
		}
		if rs.wal != nil {
			if err := rs.wal.Checkpoint(ep.seq); err != nil {
				return fmt.Errorf("act: compact: rotating WAL: %w", err)
			}
		}
	}
	return nil
}

// compactEpoch asks its context once per cancelCheckEvery base cells.
const cancelCheckEvery = 4096

// compactEpoch rebuilds a clean epoch from ep itself (see Compact): the live
// delta coverings are sorted (supercover.Builder), and the base trie's
// cells, which it hands out in ascending id order, pass with removed
// polygons' references dropped through the merge's forward pass with them
// (supercover.Sorted.Merge) straight into the trie builder — merged as they
// are read, never copied or sorted. The geometry store, id set and sequence
// stay ep's. No covering is recomputed, so each polygon keeps its cells
// exactly as the process that covered it built them. The context is asked
// every cancelCheckEvery cells of the base.
func (ix *Index) compactEpoch(ctx context.Context, ep *epoch) (*epoch, error) {
	defer ix.keepMapped() // the walk may read a file-mapped arena
	// The epoch's recorded precision covers the base polygons; delta
	// coverings can only have been built at the index's own bound, so the
	// max below stays a faithful worst case (an upper bound when the worst
	// polygon has since been removed).
	stats := BuildStats{NumPolygons: ep.live, AchievedPrecisionMeters: ep.stats.AchievedPrecisionMeters}

	start := time.Now()
	var scb supercover.Builder
	for _, p := range ep.ov.Polys() {
		if !ep.alive[p.ID] {
			continue
		}
		if err := scb.Add(p.ID, p.Cov); err != nil {
			return nil, fmt.Errorf("act: compact: merging delta polygon %d: %w", p.ID, err)
		}
		stats.AchievedPrecisionMeters = max(stats.AchievedPrecisionMeters, p.Cov.AchievedPrecisionMeters)
	}
	sorted := scb.Sort()
	stats.MergeDuration = time.Since(start)

	base := func(yield func(cellid.ID, []supercover.Ref) error) error {
		var keep []supercover.Ref
		visited := 0
		return ep.trie.Cells(func(cell cellid.ID, refs []supercover.Ref) error {
			if visited++; visited%cancelCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			keep = keep[:0]
			for _, r := range refs {
				if ep.alive[r.PolygonID] {
					keep = append(keep, r)
				}
			}
			return yield(cell, keep) // the merge drops a cell left without references
		})
	}
	trie, err := ix.pl.build(func(cell func(cellid.ID, []supercover.Ref) error) error {
		err := sorted.Merge(base, cell)
		stats.IndexedCells = sorted.NumCells()
		return err
	}, ep.trie, &stats)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	fresh := *ep
	fresh.trie, fresh.stats, fresh.ov, fresh.removed = trie, stats, nil, 0
	return &fresh, nil
}
