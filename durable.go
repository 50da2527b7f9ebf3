package act

// Durability: the checkpoint + log pair behind a crash-safe mutable index.
//
// An index built with WithWAL appends every Insert and Remove to a
// write-ahead delta log (internal/wal) before the mutation is acknowledged
// or served; a crashed process rebuilds deterministically by loading its
// last base state and replaying the log tail — either New with the same
// polygon set and the same WAL (the log replays onto the fresh build), or
// Recover, which loads a serialized snapshot and replays on top of it.
// Compaction closes the loop: when a snapshot path is configured, every
// compaction atomically writes the fresh base to it and rotates the log,
// so the log length is bounded by the churn between compactions.
//
// Replay is idempotent (see stage): a snapshot newer than the log's
// checkpoint floor — the legal crash window between snapshot publication and
// log rotation — makes the overlap a no-op. A torn final record — the
// expected shape of a crash mid-append — is detected by its CRC and
// truncated away.

import (
	"errors"
	"fmt"
	"time"

	"github.com/actindex/act/internal/fault"
	"github.com/actindex/act/internal/wal"
)

// FsyncPolicy selects when the write-ahead log forces appended records to
// stable storage. It is the log's own policy type, so the public constants
// and the log's are one set.
type FsyncPolicy = wal.Policy

const (
	// SyncAlways fsyncs after every mutation (the default): no
	// acknowledged Insert or Remove is ever lost, at the price of one disk
	// flush per mutation.
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs on a background cadence (WALConfig.Interval,
	// default 100ms): a crash loses at most one interval of acknowledged
	// mutations.
	SyncInterval = wal.SyncInterval
	// SyncOff never fsyncs: records are written through to the kernel
	// (surviving a process crash) but an OS crash or power loss can drop
	// the tail still in the page cache.
	SyncOff = wal.SyncOff
)

// WALConfig configures the write-ahead delta log attached by [WithWAL] and
// [Recover].
type WALConfig struct {
	// Path is the log file, created if absent. Records left in it by a
	// previous process are replayed when the index comes up. Required by
	// WithWAL; ignored by Recover (which takes the path as an argument).
	Path string
	// SnapshotPath, when set, makes every compaction a checkpoint: the
	// freshly compacted base is written to this path atomically
	// (temp file + rename) and the log is truncated down to the mutations
	// the snapshot does not cover. The written file is a regular index
	// file — OpenIndex serves it, Recover resumes from it. When empty,
	// compactions never truncate the log; replay then depends on
	// rebuilding the same base (New with the same polygon set), and the
	// log grows with total churn rather than churn-since-checkpoint.
	SnapshotPath string
	// Policy is the fsync policy (default SyncAlways).
	Policy FsyncPolicy
	// Interval is the SyncInterval flush cadence (default 100ms); ignored
	// by the other policies.
	Interval time.Duration
	// FS overrides the filesystem the durability pair talks to: the log
	// and the checkpoint snapshot at SnapshotPath both go through it, each
	// snapshot by the one replace routine (temp file, fsync, rename,
	// directory fsync) the log rotation uses too. It is the fault-injection
	// seam (internal/fault.FS) the crash tests drive. Nil uses the real OS.
	FS fault.VFS
}

// WALStats is a point-in-time snapshot of the attached log's durability
// counters; the zero value means no WAL is attached.
type WALStats struct {
	// Enabled reports whether the index has a write-ahead log attached.
	Enabled bool
	// Seq is the sequence number of the last logged (or recovered)
	// mutation; BaseSeq the checkpoint floor — mutations at or below it
	// are covered by the last checkpoint snapshot.
	Seq     uint64
	BaseSeq uint64
	// Epoch is the replication fencing epoch recorded in the log header:
	// 0 until a promotion ever happened in this index's lineage.
	Epoch uint64
	// SnapshotPath is where checkpoints write the snapshot the log pairs
	// with ("" when compactions never checkpoint); a replication primary
	// serves it to bootstrapping followers.
	SnapshotPath string
	// Bytes is the current log file length.
	Bytes int64
	// LastSync is the wall time of the last successful fsync (zero if the
	// log has never been fsynced).
	LastSync time.Time
	// Checkpoints counts log rotations since the log was attached.
	Checkpoints uint64
	// RecoveredRecords is the number of log records replayed when the
	// index came up — 0 after a clean shutdown or a fresh start.
	RecoveredRecords int
	// Failed is the log's sticky fail-stop cause ("" while healthy). Once
	// non-empty the log rejects every append and the index serves
	// read-only (mutations report ErrWALFailed).
	Failed string
}

// WALTail opens a reader of the attached log's records with seq > after:
// the replication stream's source. It reports wal.ErrBelowFloor when after
// is below the checkpoint floor and wal.ErrClosed once the log is closed.
func (ix *Index) WALTail(after uint64) (*wal.Tail, error) {
	log := ix.rs.Load().wal
	if log == nil {
		return nil, errors.New("act: no write-ahead log attached")
	}
	return log.Tail(after)
}

// Recover loads the base snapshot at indexPath, opens the write-ahead log
// at walPath, and deterministically replays the log's tail on top of the
// snapshot: the result serves exactly the polygon set of the crashed
// process's last acknowledged mutation (under SyncAlways; weaker fsync
// policies can lose their documented tail). A torn final record — the
// normal residue of a crash mid-append — is truncated away.
//
// The recovered index is a primary: Insert and Remove work (and keep
// appending to the same log, so repeated crash/recover cycles compose),
// and indexPath doubles as the checkpoint snapshot target, so compactions
// keep the log bounded. Replay covers inserts with the pipeline every
// loaded index carries, rebuilt from the persisted precision, grid, and
// fanout.
//
// Options are honored where they apply (WithDeltaThreshold, WithObserver,
// and a WithWAL carrying the fsync policy and filesystem for the reattached
// log — its Path and SnapshotPath fields are ignored here); build options
// like WithPrecision are ignored, since the snapshot fixes them. Without a
// WALConfig.FS the snapshot is memory-mapped, as OpenIndex maps it; with
// one it is read through that filesystem onto the heap, as ReadIndex reads
// it, checksums verified.
func Recover(indexPath, walPath string, opts ...Option) (*Index, error) {
	o := applyOptions(opts)
	cfg := WALConfig{Path: walPath, SnapshotPath: indexPath}
	if o.WAL != nil {
		cfg.Policy = o.WAL.Policy
		cfg.Interval = o.WAL.Interval
		cfg.FS = o.WAL.FS
	}
	ix, err := loadSnapshot(cfg.FS, indexPath)
	if err != nil {
		return nil, fmt.Errorf("act: recover: loading snapshot: %w", err)
	}
	ix.setRole(primary, o)
	if err := ix.attachWAL(cfg); err != nil {
		ix.Close()
		return nil, err
	}
	return ix, nil
}

// loadSnapshot loads the index file at path: mapped (OpenIndex) from the
// OS when fsys is nil, read onto the heap (ReadIndex) through fsys
// otherwise.
func loadSnapshot(fsys fault.VFS, path string) (*Index, error) {
	if fsys == nil {
		return OpenIndex(path)
	}
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadIndex(f)
}

// walOptions translates a WALConfig into the options every log of this
// index is opened with (attachWAL, Promote): the fsync policy, interval and
// filesystem from cfg, and the index's observer as the log's hooks, so
// appends, fsyncs and rotations are observed from the open onward.
func (ix *Index) walOptions(cfg WALConfig) wal.Options {
	wopts := wal.Options{Policy: cfg.Policy, Interval: cfg.Interval, FS: cfg.FS}
	if o := ix.obs; o != nil {
		wopts.OnAppend = o.OnWALAppend
		wopts.OnFsync = o.OnWALFsync
		wopts.OnRotate = o.OnWALRotate
		wopts.Logger = o.Logger
	}
	return wopts
}

// attachWAL opens (or creates) the configured log, replays any records a
// previous process left in it, and attaches the log to the index's role.
// Called at construction, before the index is shared.
func (ix *Index) attachWAL(cfg WALConfig) error {
	if cfg.Path == "" {
		return errors.New("act: WAL config needs a Path")
	}
	log, rep, err := wal.Open(cfg.Path, ix.walOptions(cfg))
	if err != nil {
		return fmt.Errorf("act: opening WAL %s: %w", cfg.Path, err)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	next, err := ix.stage(rep.Records, nil)
	if err != nil {
		log.Close()
		return fmt.Errorf("act: replaying WAL %s: %w", cfg.Path, err)
	}
	// Resume the mutation sequence past everything the log has seen, so
	// new records never collide with replayed (or checkpoint-covered)
	// ones.
	if seq := log.Stats().Seq; seq > ix.live.Load().seq {
		if next == nil {
			cur := *ix.live.Load()
			next = &cur
		}
		next.seq = max(next.seq, seq)
	}
	ix.publish(next)
	rs := *ix.rs.Load()
	rs.wal, rs.walRecovered, rs.snapshotPath, rs.fs = log, len(rep.Records), cfg.SnapshotPath, cfg.FS
	ix.rs.Store(&rs)
	return nil
}
