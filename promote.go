package act

// Failover: fail-stop degradation and fenced follower promotion.
//
// A durable index degrades rather than lies. When its write-ahead log trips
// into the sticky fail-stop state (a failed append or fsync — see
// internal/wal), every further Insert and Remove reports ErrWALFailed
// without acknowledging anything: reads, joins, and the replication stream
// keep serving the last consistent state, but no mutation is accepted that
// the log cannot make durable.
//
// Promotion turns a replication follower into the next primary under an
// epoch fence. Each promotion bumps the replication epoch (stored in the
// WAL header and stamped on every replication exchange as X-Act-Epoch);
// the old primary fences itself the moment it observes the higher epoch —
// Fence is one-way — and from then on rejects mutations (ErrFenced) and
// replication requests (412). Together the two rules give the split-brain
// guarantee: at most one index lineage is ever mutable per epoch, and a
// resurrected stale primary can neither acknowledge writes nor feed
// followers history the new primary does not have.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"

	"github.com/actindex/act/internal/fault"
	"github.com/actindex/act/internal/wal"
)

// Failover errors.
var (
	// ErrWALFailed is reported by Insert and Remove once the attached
	// write-ahead log has tripped into its fail-stop state: the mutation
	// was NOT acknowledged and the index now serves read-only. The cause
	// is in Status().WAL.Failed.
	ErrWALFailed = errors.New("act: write-ahead log has failed; index is read-only")
	// ErrFenced is reported by Insert and Remove on a primary that has
	// been fenced by a newer replication epoch: a follower was promoted,
	// and accepting writes here would fork history.
	ErrFenced = errors.New("act: index is fenced by a newer replication epoch")
)

// writableLocked reports why the index cannot accept a client mutation (nil
// when it can): its role, then a fence, then the log's sticky failure.
// Otherwise it returns the log the mutation goes to (nil without one).
// Caller holds ix.mu.
func (ix *Index) writableLocked() (*wal.Log, error) {
	rs := ix.rs.Load()
	switch rs.role {
	case readOnly:
		return nil, ErrImmutable
	case follower, promoting:
		return nil, ErrFollower
	}
	if e := ix.fencedAt.Load(); e != 0 {
		return nil, fmt.Errorf("%w (fenced at epoch %d)", ErrFenced, e)
	}
	if rs.wal != nil {
		if err := rs.wal.Err(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrWALFailed, err)
		}
	}
	return rs.wal, nil
}

// Fence marks the index as superseded by the given replication epoch:
// every further mutation reports ErrFenced. Fencing is one-way and
// monotone — a higher epoch overwrites a lower one, nothing ever unfences —
// so a stale primary that learns of its successor stays read-only for the
// rest of its life. Epoch 0 never fences (it is the pre-failover epoch).
func (ix *Index) Fence(epoch uint64) {
	for cur := ix.fencedAt.Load(); cur < epoch && !ix.fencedAt.CompareAndSwap(cur, epoch); {
		cur = ix.fencedAt.Load()
	}
}

// Promote converts a replication follower into a primary under the given
// (already-bumped) epoch, continuing from seq, the follower's replication
// position (one below Status().Seq is refused): the overlay is compacted
// down, the clean state written as a checkpoint snapshot to
// cfg.SnapshotPath, and a fresh write-ahead log opened at cfg.Path with seq
// as its base and the new epoch in its header, both through cfg.FS. The
// index's sequence becomes seq too, so the next mutation logs seq+1. On
// return the index accepts Insert and Remove and owns both paths, so a
// Primary wired around it serves the next generation of followers.
//
// The ordering is crash-safe: the snapshot is durably committed before the
// log is created or the role changes, so a crash mid-promotion leaves a
// valid bootstrap image and a process that still thinks it is a follower —
// re-running the promotion (or re-bootstrapping from the new primary, if
// another candidate won) is always safe. ApplyReplicated is rejected for
// the duration, so no stale stream record can land after the state that the
// snapshot captures.
//
// The caller is responsible for the distributed half of the contract:
// verify the follower has drained the old primary's acknowledged history
// before promoting (internal/replica.Follower.Promote does), or removals
// acknowledged by the old primary may resurrect.
func (ix *Index) Promote(ctx context.Context, cfg WALConfig, epoch, seq uint64) error {
	ix.compactMu.Lock()
	defer ix.compactMu.Unlock()

	if cfg.Path == "" || cfg.SnapshotPath == "" {
		return errors.New("act: promote: WAL config needs Path and SnapshotPath")
	}
	if epoch == 0 {
		return errors.New("act: promote: epoch must be at least 1")
	}
	ix.mu.Lock()
	was := ix.rs.Load()
	if was.role != follower {
		ix.mu.Unlock()
		return errors.New("act: promote: index is not a replication follower")
	}
	if own := ix.live.Load().seq; seq < own {
		ix.mu.Unlock()
		return fmt.Errorf("act: promote: seq %d is below the index's applied seq %d", seq, own)
	}
	ix.rs.Store(&roleState{role: promoting, snapshotPath: cfg.SnapshotPath, fs: cfg.FS})
	ix.mu.Unlock()
	defer func() { // a failed promotion leaves the follower as it was
		ix.mu.Lock()
		if ix.rs.Load().role == promoting {
			ix.rs.Store(was)
		}
		ix.mu.Unlock()
	}()

	// Fold the overlay into a clean base and checkpoint it to the new
	// snapshot path, as every compaction does; nothing new can land while
	// promoting.
	if err := ix.compactLocked(ctx, true); err != nil {
		return fmt.Errorf("act: promote: %w", err)
	}
	// The snapshot is durable; from here a crash leaves a valid bootstrap
	// image. Clear any stale log at the target path (a leftover from a
	// previous life as primary) so the fresh log starts at the snapshot.
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := fault.OrOS(cfg.FS).Remove(cfg.Path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("act: promote: clearing stale log: %w", err)
	}
	wopts := ix.walOptions(cfg)
	wopts.BaseSeq, wopts.Epoch = seq, epoch
	log, rep, err := wal.Open(cfg.Path, wopts)
	if err != nil {
		return fmt.Errorf("act: promote: opening log: %w", err)
	}
	if len(rep.Records) > 0 {
		log.Close()
		return fmt.Errorf("act: promote: fresh log at %s has %d residual records", cfg.Path, len(rep.Records))
	}
	next := *ix.live.Load()
	next.seq = seq
	ix.live.Swap(&next)
	ix.rs.Store(&roleState{role: primary, wal: log, snapshotPath: cfg.SnapshotPath, fs: cfg.FS})
	return nil
}
