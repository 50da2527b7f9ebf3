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
	"context"
	"errors"
	"fmt"

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
// report ErrFollower, Status().Mutable is false) and carries no log of its
// own: durability lives with the primary, and a restarted follower simply
// bootstraps from the primary's current snapshot again.
//
// Options are honored as for Recover (WithDeltaThreshold, WithObserver);
// build options are fixed by the snapshot, whose pipeline covers the
// replicated inserts.
func OpenFollower(indexPath string, opts ...Option) (*Index, error) {
	ix, err := OpenIndex(indexPath)
	if err != nil {
		return nil, fmt.Errorf("act: follower: loading snapshot: %w", err)
	}
	ix.setRole(follower, applyOptions(opts))
	return ix, nil
}

// ApplyReplicated applies one batch of primary log records to a follower,
// by the rules WAL replay decodes them with (see stage): the whole batch
// lands as a single overlay build and epoch swing — a reader sees either
// none or all of it, and batch size amortizes the delta trie construction
// during catch-up. A replay overlap after a reconnect or re-bootstrap is
// absorbed; an insert that would leave an id gap — a hole in the stream — is
// corruption and fails the batch. On error nothing is published: the
// follower keeps its last consistent state and the caller re-syncs from it.
func (ix *Index) ApplyReplicated(ctx context.Context, records []wal.Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(records) == 0 {
		return nil
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	switch ix.rs.Load().role {
	case follower:
	case promoting:
		return errors.New("act: index is being promoted; stream application is closed")
	default:
		return errors.New("act: ApplyReplicated on a non-follower index")
	}
	next, err := ix.stage(records, nil)
	if err != nil {
		return fmt.Errorf("act: replicated %w", err)
	}
	ix.maybeCompact(ix.publish(next))
	return nil
}
