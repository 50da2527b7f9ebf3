package act

// Replication: the follower half of a primary → follower pair.
//
// A primary is an ordinary durable index (WithWAL or Recover, with a
// snapshot path): its checkpoint snapshot plus its log stream fully
// determine its state. A follower bootstraps by loading a copy of the
// snapshot (OpenFollower) and then applies the primary's log records as
// they arrive (ApplyReplicated) — the same records, decoded by the same
// rules, as crash recovery replays, so the follower converges on exactly
// the polygon set the primary acknowledged. Batches land in the delta
// overlay and swing the epoch atomically; readers on the follower never
// block, and background compaction folds the overlay down (the epoch
// rebuild — see Compact) so a long-lived follower's memory stays bounded.
//
// The transport lives in internal/replica; this file is the index-side
// machinery it drives.

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"github.com/actindex/act/internal/delta"
	"github.com/actindex/act/internal/geojson"
	"github.com/actindex/act/internal/supercover"
	"github.com/actindex/act/internal/wal"
)

// ErrFollower is reported by Insert and Remove on a replication follower:
// followers serve reads and take their writes from the primary's log
// stream only.
var ErrFollower = errors.New("act: index is a replication follower and serves reads only")

// OpenFollower loads the snapshot at indexPath and prepares it to track a
// replication primary. The returned index is internally live —
// ApplyReplicated lands the primary's log records in the delta overlay and
// background compaction folds them into fresh bases, exactly as mutations
// do on the primary — but refuses client mutations (Insert and Remove
// report ErrFollower, Mutable reports false) and carries no log of its
// own: durability lives with the primary, and a restarted follower simply
// bootstraps from the primary's current snapshot again.
//
// Options are honored as for Recover (WithInterleave, WithDeltaThreshold,
// WithBuildWorkers); build-shape options are fixed by the snapshot.
func OpenFollower(indexPath string, opts ...Option) (*Index, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	ix, err := OpenIndex(indexPath)
	if err != nil {
		return nil, fmt.Errorf("act: follower: loading snapshot: %w", err)
	}
	if err := ix.promoteMutable(&o); err != nil {
		ix.Close()
		return nil, fmt.Errorf("act: follower: %w", err)
	}
	ix.follower = true
	return ix, nil
}

// Follower reports whether the index is a replication follower.
func (ix *Index) Follower() bool { return ix.follower }

// AppliedSeq returns the sequence number of the last mutation applied to
// the index. On a follower this is the replication position; compared with
// the primary's stream position it yields the replication lag.
func (ix *Index) AppliedSeq() uint64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.seq
}

// ApplyReplicated applies one batch of primary log records to a follower.
// The records are decoded and covered by the same rules as WAL replay, and
// the whole batch lands as a single overlay rebuild and epoch swing — a
// reader sees either none or all of it, and batch size amortizes the delta
// trie construction during catch-up. Application is idempotent against the
// follower's state (an insert whose id already exists and a remove of a
// dead id are skipped; checkpoint records are rotation markers and carry
// no mutation), so a replay overlap after a reconnect or re-bootstrap is
// absorbed, while an insert that would leave an id gap — a hole in the
// stream — is corruption and fails the batch. On error nothing is
// published: the follower keeps its last consistent state and the caller
// re-syncs from it.
func (ix *Index) ApplyReplicated(ctx context.Context, records []wal.Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(records) == 0 {
		return nil
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ix.follower {
		return errors.New("act: ApplyReplicated on a non-follower index")
	}
	if ix.promoting {
		return errors.New("act: index is being promoted; stream application is closed")
	}

	// Merge the batch into a copy of the overlay's contents; the overlay
	// itself is an immutable snapshot readers may still hold.
	ep := ix.live.Load()
	base := ep.ov.Polys()
	polys := make([]delta.Poly, len(base), len(base)+len(records))
	copy(polys, base)
	var tombs map[uint32]uint64
	if old := ep.ov.Tombstones(); len(old) > 0 {
		tombs = make(map[uint32]uint64, len(old))
		for id, seq := range old {
			tombs[id] = seq
		}
	}
	// Work on a copy of the liveness column too: a batch that fails
	// mid-way must leave no trace, or the re-streamed remove would be
	// skipped as already-dead and its tombstone lost.
	alive := make([]bool, len(ix.alive), len(ix.alive)+len(records))
	copy(alive, ix.alive)
	live := ix.liveCount.Load()
	applied := ix.seq
	changed := false
	for i, rec := range records {
		switch rec.Type {
		case wal.TypeCheckpoint:
			continue // rotation marker: its mutations were already streamed
		case wal.TypeInsert:
			if int(rec.ID) < len(alive) {
				continue // already present: replay overlap after a re-sync
			}
			if int(rec.ID) != len(alive) {
				return fmt.Errorf("act: replicated record %d: insert id %d would leave a gap (id space is %d)", i, rec.ID, len(alive))
			}
			if len(alive) > supercover.MaxPolygonID {
				return fmt.Errorf("act: replicated record %d: the 2^30 polygon id space is exhausted", i)
			}
			ps, err := geojson.ReadPolygons(bytes.NewReader(rec.Data))
			if err != nil {
				return fmt.Errorf("act: replicated record %d (insert %d): %w", i, rec.ID, err)
			}
			if len(ps) != 1 {
				return fmt.Errorf("act: replicated record %d (insert %d): record carries %d polygons, want 1", i, rec.ID, len(ps))
			}
			cov, gp, err := ix.pl.cover(ps[0])
			if err != nil {
				return fmt.Errorf("act: replicated record %d (insert %d): %w", i, rec.ID, err)
			}
			polys = append(polys, delta.Poly{ID: rec.ID, Cov: cov, Geom: gp, Seq: rec.Seq})
			alive = append(alive, true)
			live++
			changed = true
		case wal.TypeRemove:
			if int(rec.ID) >= len(alive) || !alive[rec.ID] {
				continue // already gone: removal predates the bootstrap snapshot
			}
			alive[rec.ID] = false
			live--
			// Mirror Overlay.WithRemove: a removed delta polygon is dropped
			// from the delta set, the tombstone kept either way.
			for j, dp := range polys {
				if dp.ID == rec.ID {
					polys = append(polys[:j], polys[j+1:]...)
					break
				}
			}
			if tombs == nil {
				tombs = make(map[uint32]uint64)
			}
			tombs[rec.ID] = rec.Seq
			changed = true
		default:
			return fmt.Errorf("act: replicated record %d: unexpected record type %d", i, rec.Type)
		}
		if rec.Seq > applied {
			applied = rec.Seq
		}
	}
	if !changed {
		ix.seq = applied // pure overlap: just advance the position
		return nil
	}
	ov, err := delta.New(ix.pl.fanout, polys, tombs)
	if err != nil {
		return err
	}
	ix.alive = alive
	ix.seq = applied
	ix.idSpace.Store(int64(len(alive)))
	ix.liveCount.Store(live)
	ix.live.Swap(&epoch{trie: ep.trie, store: ep.store, ov: ov, stats: ep.stats})
	ix.maybeCompact(ov)
	return nil
}
