package wal

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"github.com/actindex/act/internal/fault"
)

// TestFailStopFsyncAlways: under SyncAlways, a failed append fsync trips
// the sticky fail-stop state — the append reports the failure and every
// later append is rejected with ErrFailed.
func TestFailStopFsyncAlways(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	// Sync 1 is the fresh-header fsync; sync 2 is the first append's.
	s := fault.NewSchedule().FailNth(fault.OpSync, 2, syscall.EIO)
	l, _ := openT(t, path, Options{FS: fault.FS{S: s}})
	defer l.Close()

	err := l.Append(Record{Type: TypeInsert, Seq: 1, ID: 0, Data: []byte("{}")})
	if !errors.Is(err, ErrFailed) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("append after fsync fault: %v, want ErrFailed wrapping EIO", err)
	}
	if l.Err() == nil {
		t.Fatal("log not in failed state after fsync fault")
	}
	// Sticky: the next append must be rejected even though no fault fires.
	if err := l.Append(Record{Type: TypeInsert, Seq: 2, ID: 1, Data: []byte("{}")}); !errors.Is(err, ErrFailed) {
		t.Fatalf("append on failed log: %v, want ErrFailed", err)
	}
	if st := l.Stats(); st.Failed == "" {
		t.Fatal("Stats.Failed empty on a failed log")
	}
	if err := l.Sync(); !errors.Is(err, ErrFailed) {
		t.Fatalf("Sync on failed log: %v, want ErrFailed", err)
	}
	if err := l.Checkpoint(1); !errors.Is(err, ErrFailed) {
		t.Fatalf("Checkpoint on failed log: %v, want ErrFailed", err)
	}
}

// TestFailStopFsyncInterval: a background-flusher fsync failure trips the
// same fail-stop state, surfacing on the next append.
func TestFailStopFsyncInterval(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	s := fault.NewSchedule().FailFrom(fault.OpSync, 2, syscall.EIO)
	l, _ := openT(t, path, Options{Policy: SyncInterval, Interval: 5 * time.Millisecond, FS: fault.FS{S: s}})
	defer l.Close()

	// The append itself succeeds (interval policy does not fsync inline)...
	appendT(t, l, Record{Type: TypeInsert, Seq: 1, ID: 0, Data: []byte("{}")})
	// ...then the flusher hits the sticky fsync fault in the background.
	deadline := time.Now().Add(2 * time.Second)
	for l.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("flusher fsync fault never tripped the log")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Append(Record{Type: TypeInsert, Seq: 2, ID: 1, Data: []byte("{}")}); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after background trip: %v, want ErrFailed", err)
	}
}

// TestFailStopSyncOff: with fsync off, explicit Sync still trips fail-stop
// on error, but appends alone never fsync and stay healthy.
func TestFailStopSyncOff(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	s := fault.NewSchedule().FailFrom(fault.OpSync, 2, syscall.EIO)
	l, _ := openT(t, path, Options{Policy: SyncOff, FS: fault.FS{S: s}})
	defer l.Close()

	for i := uint64(1); i <= 5; i++ {
		appendT(t, l, Record{Type: TypeInsert, Seq: i, ID: uint32(i - 1), Data: []byte("{}")})
	}
	if l.Err() != nil {
		t.Fatalf("SyncOff log failed without an fsync: %v", l.Err())
	}
	if err := l.Sync(); !errors.Is(err, ErrFailed) {
		t.Fatalf("explicit Sync fault: %v, want ErrFailed", err)
	}
	if err := l.Append(Record{Type: TypeInsert, Seq: 6, ID: 5}); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after Sync trip: %v, want ErrFailed", err)
	}
}

// TestENOSPCSticky: a disk that filled up (sticky write failure) fails the
// append without advancing the sequence, and recovery truncates the torn
// frame the failed write left behind.
func TestENOSPCSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	// Write 1 is the header; appends start at write 2. Let two appends
	// through, then the disk is full forever — each failed write lands 5
	// bytes of torn frame.
	s := fault.NewSchedule()
	s.Rule(fault.OpWrite, 4, fault.Decision{Err: syscall.ENOSPC, Keep: 5})
	l, _ := openT(t, path, Options{FS: fault.FS{S: s}})
	appendT(t, l, Record{Type: TypeInsert, Seq: 1, ID: 0, Data: []byte("{}")})
	appendT(t, l, Record{Type: TypeInsert, Seq: 2, ID: 1, Data: []byte("{}")})
	err := l.Append(Record{Type: TypeInsert, Seq: 3, ID: 2, Data: []byte("{}")})
	if !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrFailed) {
		t.Fatalf("append on full disk: %v, want ErrFailed wrapping ENOSPC", err)
	}
	seqBefore := l.Stats().Seq
	if seqBefore != 2 {
		t.Fatalf("failed append advanced seq to %d", seqBefore)
	}
	l.Close()

	// Recovery: the 5 torn bytes are truncated, the two good records replay.
	l2, rep := openT(t, path, Options{})
	defer l2.Close()
	if len(rep.Records) != 2 || rep.TruncatedBytes != 5 {
		t.Fatalf("recovery after ENOSPC: %d records, %d truncated; want 2, 5", len(rep.Records), rep.TruncatedBytes)
	}
}

// TestCheckpointRenameFailure: a rename failure during rotation leaves the
// old log intact and appendable (no fail-stop — the rotation simply did
// not happen), and a reopen replays everything.
func TestCheckpointRenameFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	s := fault.NewSchedule().FailNth(fault.OpRename, 1, syscall.EIO)
	l, _ := openT(t, path, Options{FS: fault.FS{S: s}})
	for i := uint64(1); i <= 3; i++ {
		appendT(t, l, Record{Type: TypeInsert, Seq: i, ID: uint32(i - 1), Data: []byte("{}")})
	}
	if err := l.Checkpoint(2); !errors.Is(err, syscall.EIO) {
		t.Fatalf("checkpoint with failing rename: %v, want EIO", err)
	}
	if l.Err() != nil {
		t.Fatalf("pre-rename failure tripped fail-stop: %v", l.Err())
	}
	// The old log must still accept appends at the right offset...
	appendT(t, l, Record{Type: TypeInsert, Seq: 4, ID: 3, Data: []byte("{}")})
	// ...and a later checkpoint (rename healthy again) succeeds.
	if err := l.Checkpoint(2); err != nil {
		t.Fatalf("checkpoint retry: %v", err)
	}
	st := l.Stats()
	if st.BaseSeq != 2 || st.Seq != 4 {
		t.Fatalf("after retry: baseSeq %d seq %d, want 2 4", st.BaseSeq, st.Seq)
	}
	l.Close()

	l2, rep := openT(t, path, Options{})
	defer l2.Close()
	if rep.BaseSeq != 2 || len(rep.Records) != 2 {
		t.Fatalf("reopen after rotation: baseSeq %d, %d records; want 2, 2", rep.BaseSeq, len(rep.Records))
	}
}

// TestCreateTempFailureKeepsAppending: a temp-file creation failure during
// rotation must leave the log's append offset intact — the harvest scan
// moves the file position, and the failure path has to restore it.
func TestCreateTempFailureKeepsAppending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	s := fault.NewSchedule().FailNth(fault.OpCreate, 1, syscall.EMFILE)
	l, _ := openT(t, path, Options{FS: fault.FS{S: s}})
	appendT(t, l, Record{Type: TypeInsert, Seq: 1, ID: 0, Data: []byte("{}")})
	if err := l.Checkpoint(1); !errors.Is(err, syscall.EMFILE) {
		t.Fatalf("checkpoint with failing CreateTemp: %v, want EMFILE", err)
	}
	appendT(t, l, Record{Type: TypeInsert, Seq: 2, ID: 1, Data: []byte("{}")})
	l.Close()

	l2, rep := openT(t, path, Options{})
	defer l2.Close()
	if len(rep.Records) != 2 || rep.TruncatedBytes != 0 {
		t.Fatalf("reopen: %d records, %d truncated; want 2, 0 (append landed at a wrong offset?)",
			len(rep.Records), rep.TruncatedBytes)
	}
}

// TestEpochRoundTrip: the epoch seeded at creation survives reopen and
// rotation, and Stats/Epoch report it.
func TestEpochRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openT(t, path, Options{BaseSeq: 10, Epoch: 3})
	if l.Stats().Epoch != 3 {
		t.Fatalf("fresh epoch %d, want 3", l.Stats().Epoch)
	}
	if st := l.Stats(); st.Epoch != 3 || st.BaseSeq != 10 || st.Seq != 10 {
		t.Fatalf("fresh stats: %+v", st)
	}
	appendT(t, l, Record{Type: TypeInsert, Seq: 11, ID: 0, Data: []byte("{}")})
	if err := l.Checkpoint(11); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Epoch != 3 {
		t.Fatalf("epoch after rotation %d, want 3", l.Stats().Epoch)
	}
	l.Close()

	// Reopen: the header's epoch wins; Options.Epoch is ignored for
	// existing files.
	l2, _ := openT(t, path, Options{Epoch: 99})
	defer l2.Close()
	if l2.Stats().Epoch != 3 {
		t.Fatalf("reopened epoch %d, want 3", l2.Stats().Epoch)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hdr, err := ReadHeader(f)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != 2 || hdr.Epoch != 3 || hdr.BaseSeq != 11 || hdr.Len != headerSize {
		t.Fatalf("on-disk header: %+v", hdr)
	}
}
