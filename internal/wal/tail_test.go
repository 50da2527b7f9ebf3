package wal

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/actindex/act/internal/fault"
)

// tailT opens a tail or fails the test.
func tailT(t *testing.T, l *Log, after uint64) *Tail {
	t.Helper()
	tl, err := l.Tail(after)
	if err != nil {
		t.Fatalf("Tail(%d): %v", after, err)
	}
	t.Cleanup(func() { tl.Close() })
	return tl
}

// readSeqs reads the tail once and returns the delivered sequence numbers.
func readSeqs(t *testing.T, tl *Tail) []uint64 {
	t.Helper()
	recs, err := tl.Read(nil)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	var seqs []uint64
	for _, r := range recs {
		seqs = append(seqs, r.Seq)
	}
	return seqs
}

// appendSeqs appends one insert per sequence number.
func appendSeqs(t *testing.T, l *Log, seqs ...uint64) {
	t.Helper()
	for _, s := range seqs {
		appendT(t, l, Record{Type: TypeInsert, Seq: s, ID: uint32(s), Data: []byte(`{"type":"Polygon"}`)})
	}
}

func wantSeqs(t *testing.T, what string, got []uint64, want ...uint64) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: got seqs %v, want %v", what, got, want)
	}
}

// TestTailBelowFloor: a position the checkpoint floor has passed is
// refused; the floor itself is a valid position.
func TestTailBelowFloor(t *testing.T) {
	l, _ := openT(t, filepath.Join(t.TempDir(), "wal.log"), Options{})
	defer l.Close()
	appendSeqs(t, l, 1, 2, 3)
	if err := l.Checkpoint(2); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Tail(1); !errors.Is(err, ErrBelowFloor) {
		t.Fatalf("Tail(1) below floor 2: %v, want ErrBelowFloor", err)
	}
	wantSeqs(t, "tail at the floor", readSeqs(t, tailT(t, l, 2)), 3)
}

// TestTailAfter: only records with seq > after are yielded, each once, and
// appends are picked up by the next Read.
func TestTailAfter(t *testing.T) {
	l, _ := openT(t, filepath.Join(t.TempDir(), "wal.log"), Options{})
	defer l.Close()
	appendSeqs(t, l, 1, 2, 3, 4, 5)
	tl := tailT(t, l, 2)
	wantSeqs(t, "first read", readSeqs(t, tl), 3, 4, 5)
	wantSeqs(t, "second read", readSeqs(t, tl))
	appendSeqs(t, l, 6)
	wantSeqs(t, "after an append", readSeqs(t, tl), 6)
}

// splitFS hands out log files whose next write, once armed, lands only
// half of its bytes and holds the rest back until finish: to a reader the
// file ends in a torn frame, as it does while a write is in progress.
type splitFS struct {
	fault.OS
	f *splitFile
}

func (s *splitFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := s.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	s.f = &splitFile{File: f}
	return s.f, nil
}

type splitFile struct {
	fault.File
	armed   bool
	pending []byte
}

func (f *splitFile) Write(p []byte) (int, error) {
	if !f.armed {
		return f.File.Write(p)
	}
	f.armed = false
	half := len(p) / 2
	if _, err := f.File.Write(p[:half]); err != nil {
		return 0, err
	}
	f.pending = append([]byte(nil), p[half:]...)
	return len(p), nil
}

func (f *splitFile) finish(t *testing.T) {
	t.Helper()
	if _, err := f.File.Write(f.pending); err != nil {
		t.Fatal(err)
	}
	f.pending = nil
}

// TestTailTornFrame: a frame that is only partly on disk is not delivered;
// once it is whole, the next Read delivers it exactly once.
func TestTailTornFrame(t *testing.T) {
	fsys := &splitFS{}
	l, _ := openT(t, filepath.Join(t.TempDir(), "wal.log"), Options{FS: fsys})
	defer l.Close()
	appendSeqs(t, l, 1)
	tl := tailT(t, l, 0)
	wantSeqs(t, "whole frame", readSeqs(t, tl), 1)

	fsys.f.armed = true
	appendSeqs(t, l, 2)
	wantSeqs(t, "torn frame", readSeqs(t, tl))
	wantSeqs(t, "torn frame, again", readSeqs(t, tl))
	fsys.f.finish(t)
	wantSeqs(t, "completed frame", readSeqs(t, tl), 2)
	wantSeqs(t, "after delivery", readSeqs(t, tl))
}

// TestTailRotationBelowPosition: a rotation whose floor the tail has
// already passed is followed into the new file without duplicates.
func TestTailRotationBelowPosition(t *testing.T) {
	l, _ := openT(t, filepath.Join(t.TempDir(), "wal.log"), Options{})
	defer l.Close()
	appendSeqs(t, l, 1, 2, 3, 4)
	tl := tailT(t, l, 0)
	wantSeqs(t, "before rotation", readSeqs(t, tl), 1, 2, 3, 4)
	appendSeqs(t, l, 5, 6)
	if err := l.Checkpoint(3); err != nil {
		t.Fatal(err)
	}
	// The new file holds 4, 5 and 6; 4 was delivered from the old one.
	wantSeqs(t, "across rotation", readSeqs(t, tl), 5, 6)
	appendSeqs(t, l, 7)
	wantSeqs(t, "after rotation", readSeqs(t, tl), 7)
}

// TestTailRotationPastPosition: a rotation whose floor passed the tail's
// position ends the tail with ErrBelowFloor.
func TestTailRotationPastPosition(t *testing.T) {
	l, _ := openT(t, filepath.Join(t.TempDir(), "wal.log"), Options{})
	defer l.Close()
	appendSeqs(t, l, 1, 2)
	tl := tailT(t, l, 0)
	wantSeqs(t, "before rotation", readSeqs(t, tl), 1, 2)
	appendSeqs(t, l, 3, 4)
	if err := l.Checkpoint(4); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.Read(nil); !errors.Is(err, ErrBelowFloor) {
		t.Fatalf("Read after a rotation past the position: %v, want ErrBelowFloor", err)
	}
}

// TestTailClosedLog: closing the log ends the tail, and a closed log opens
// none.
func TestTailClosedLog(t *testing.T) {
	l, _ := openT(t, filepath.Join(t.TempDir(), "wal.log"), Options{})
	appendSeqs(t, l, 1)
	tl := tailT(t, l, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.Read(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read on a closed log: %v, want ErrClosed", err)
	}
	if tl.Updates() != nil {
		t.Fatal("Updates on a closed log is not nil")
	}
	if _, err := l.Tail(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Tail on a closed log: %v, want ErrClosed", err)
	}
}

// TestTailIdleReadAllocs: a Read that finds nothing new allocates nothing,
// so a stream's heartbeat and append wakes cost no garbage per follower.
func TestTailIdleReadAllocs(t *testing.T) {
	l, _ := openT(t, filepath.Join(t.TempDir(), "wal.log"), Options{})
	defer l.Close()
	appendSeqs(t, l, 1, 2, 3)
	tl := tailT(t, l, 0)
	wantSeqs(t, "drain", readSeqs(t, tl), 1, 2, 3)
	recs := make([]Record, 0, 4)
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		recs, err = tl.Read(recs[:0])
	})
	if err != nil || len(recs) != 0 {
		t.Fatalf("idle Read: %d records, err %v", len(recs), err)
	}
	if allocs != 0 {
		t.Fatalf("idle Read allocates %v times, want 0", allocs)
	}
}

// TestOpenRefusesUnknownPolicy: an fsync policy outside the three is
// refused before any file is created.
func TestOpenRefusesUnknownPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if _, _, err := Open(path, Options{Policy: SyncOff + 1}); err == nil {
		t.Fatal("Open accepted an unknown fsync policy")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused Open left a file behind: %v", err)
	}
}
