// Package wal implements the write-ahead delta log behind a durable ACT
// index: an append-only file of length-prefixed, per-record-CRC'd mutation
// records (inserts carrying the polygon's GeoJSON and assigned id, removes
// carrying the id, checkpoints marking how far a snapshot reaches).
//
// The log is the durability half of a checkpoint+log pair. Every mutation
// is appended — and, depending on the fsync policy, forced to stable
// storage — before the in-memory epoch swings, so a crashed process can be
// rebuilt deterministically: load the last snapshot, replay the log tail.
// Compaction rotates the log (Checkpoint): records already covered by the
// freshly written snapshot are dropped and the survivors move to a new log
// file swung in by atomic rename, so the log length is bounded by the churn
// between checkpoints, not the index lifetime.
//
// Torn tails are expected, not fatal: a crash mid-append leaves a final
// record with a short or CRC-mismatching body. Open detects the first
// invalid record, truncates the file back to the last valid boundary, and
// reports how many bytes were dropped — the replayed prefix is exactly the
// mutations that were fully on disk. Corruption *before* the tail is
// handled the same way (scan stops at the first bad record); bytes after it
// are unreachable garbage by construction, never silently reinterpreted.
//
// Failures on the append path are fail-stop: a write or fsync error trips
// the log into a sticky failed state (Err, ErrFailed) that rejects every
// further Append, Sync, and Checkpoint. The alternative — carrying on past
// a failed fsync — would acknowledge mutations that may not survive a
// crash, which silently breaks the log's one guarantee; refusing loudly
// lets the layer above degrade to read-only and surface the cause.
//
// File layout (little endian):
//
//	header   "ACTW" | version u32 (=2) | baseSeq u64 | epoch u64   24 bytes
//	records  repeated:
//	  length u32      payload byte count
//	  crc    u32      CRC-32 (IEEE) of the payload
//	  payload:
//	    type u8       1=insert, 2=remove, 3=checkpoint
//	    seq  u64      mutation sequence number
//	    id   u32      polygon id (0 for checkpoints)
//	    data ...      insert: the polygon's GeoJSON; otherwise empty
//
// baseSeq is the checkpoint floor: every mutation with seq ≤ baseSeq is
// already contained in the snapshot this log pairs with. epoch is the
// replication fencing epoch: it starts at 0 and is bumped each time a
// follower is promoted to primary, so at most one log lineage is ever
// mutable per epoch. Rotation writes both into the new header and
// additionally emits a checkpoint record, so a log inspected with
// standalone tooling is self-describing.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"

	"github.com/actindex/act/internal/fault"
)

// Policy selects when appended records are fsynced to stable storage.
type Policy uint8

const (
	// SyncAlways fsyncs after every append: no acknowledged mutation is
	// ever lost, at the price of one disk flush per mutation.
	SyncAlways Policy = iota
	// SyncInterval fsyncs dirty data on a background cadence (Options.
	// Interval, default 100ms): a crash loses at most one interval of
	// acknowledged mutations. The usual throughput/durability trade.
	SyncInterval
	// SyncOff never fsyncs: records are written through to the kernel
	// (surviving a process crash) but an OS crash or power loss can drop
	// the page-cache tail. Fastest; for workloads where the index is
	// rebuildable from upstream data.
	SyncOff
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Options configures a log.
type Options struct {
	// Policy is the fsync policy (default SyncAlways — durability is the
	// point; callers opt into weaker guarantees explicitly).
	Policy Policy
	// Interval is the SyncInterval flush cadence (default 100ms).
	Interval time.Duration
	// FS overrides the filesystem the log talks to — the fault-injection
	// seam (internal/fault.FS). Nil uses the real OS.
	FS fault.VFS
	// BaseSeq and Epoch seed the header of a newly created log file; both
	// are ignored when the file already exists (its header wins). BaseSeq
	// is the checkpoint floor the paired snapshot covers; Epoch the
	// replication epoch. Promotion opens its fresh post-promotion log this
	// way.
	BaseSeq uint64
	Epoch   uint64
	// OnAppend, OnFsync, and OnRotate are observability hooks: OnAppend
	// fires once per Append call with its result, OnFsync once per fsync
	// attempt with its duration, OnRotate once per Checkpoint call. They
	// run under the log's lock on the mutation path, so they must be fast
	// and must not call back into the log (incrementing an atomic metric is
	// the intended use). All optional.
	OnAppend func(err error)
	OnFsync  func(d time.Duration, err error)
	OnRotate func(err error)
	// Logger, when non-nil, receives the log's structured lifecycle events:
	// recovery, checkpoint rotations, and the fail-stop trip.
	Logger *slog.Logger
}

// Type tags a record.
type Type uint8

const (
	// TypeInsert records a polygon insert: ID is the assigned id, Data the
	// polygon's GeoJSON encoding.
	TypeInsert Type = 1
	// TypeRemove records a polygon removal by id.
	TypeRemove Type = 2
	// TypeCheckpoint records that a snapshot containing every mutation
	// with sequence ≤ Seq has been durably written.
	TypeCheckpoint Type = 3
)

// Record is one mutation log entry.
type Record struct {
	Type Type
	// Seq is the mutation sequence number; strictly increasing within a
	// log.
	Seq uint64
	// ID is the polygon id the mutation concerns (unused by checkpoints).
	ID uint32
	// Data carries the insert's GeoJSON; empty otherwise.
	Data []byte
}

// Replay is what Open recovered from an existing log.
type Replay struct {
	// BaseSeq is the checkpoint floor: the paired snapshot already
	// contains every mutation with seq ≤ BaseSeq.
	BaseSeq uint64
	// Records are the mutation records to replay on top of the snapshot,
	// in log order, checkpoint records and records at or below BaseSeq
	// already filtered out.
	Records []Record
	// TruncatedBytes is how many bytes of torn or corrupt tail Open
	// dropped (0 for a cleanly closed log).
	TruncatedBytes int64
}

// Stats is a point-in-time snapshot of the log's durability counters.
type Stats struct {
	// Seq is the sequence number of the last appended (or recovered)
	// record; BaseSeq the checkpoint floor.
	Seq     uint64
	BaseSeq uint64
	// Epoch is the replication fencing epoch recorded in the log header
	// (0 until a promotion ever happened in this lineage).
	Epoch uint64
	// Bytes is the current log file length.
	Bytes int64
	// LastSync is the wall time of the last successful fsync (zero if the
	// log has never been fsynced — e.g. under SyncOff).
	LastSync time.Time
	// Checkpoints counts log rotations performed over this handle's
	// lifetime.
	Checkpoints uint64
	// Failed is the log's sticky failure ("" while healthy): once set,
	// every Append, Sync, and Checkpoint is rejected with it.
	Failed string
}

const (
	logMagic   = "ACTW"
	logVersion = 2
	headerSize = 24
	// recordOverhead is the fixed per-record framing: length + crc
	// prefixes and the type/seq/id payload head.
	recordOverhead = 8 + 13
	// maxRecordBytes bounds one payload; anything larger in a length
	// prefix is corruption, not data (a single polygon's GeoJSON is
	// orders of magnitude smaller).
	maxRecordBytes = 64 << 20
)

// ErrCorrupt reports a log whose header (not merely its tail) is
// unreadable; such a file cannot be recovered from and is not truncated.
var ErrCorrupt = errors.New("wal: corrupt log header")

// ErrTornFrame reports a record frame that ends mid-body, fails its CRC,
// or carries an impossible length or type. On disk this is a torn tail
// (the scan stops there); on a replication stream it is a connection cut
// mid-record — the receiver drops the fragment and resumes from the last
// whole record, exactly as crash recovery does.
var ErrTornFrame = errors.New("wal: torn or corrupt record frame")

// ErrFailed reports a log that has tripped into its sticky fail-stop
// state: a write or fsync on the append path failed, so the log can no
// longer promise that an acknowledged record is durable. Every error the
// failed log returns wraps ErrFailed together with the original cause.
var ErrFailed = errors.New("wal: log has failed and is fail-stopped")

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// ErrBelowFloor reports a tail position below the log's checkpoint floor:
// the records after it were folded into a newer snapshot and dropped by a
// rotation, so the reader must start over from that snapshot.
var ErrBelowFloor = errors.New("wal: position is below the checkpoint floor")

// Log is an open write-ahead log. Append, Sync, Checkpoint, Stats, and
// Close are safe for concurrent use with each other; the caller serializes
// Append against Checkpoint's snapshot semantics (the act layer holds its
// mutation lock across both).
type Log struct {
	mu   sync.Mutex
	f    fault.File
	fs   fault.VFS
	path string
	opts Options

	seq         uint64
	baseSeq     uint64
	epoch       uint64
	bytes       int64
	dirty       bool
	lastSync    time.Time
	checkpoints uint64
	closed      bool
	// failed is the sticky fail-stop error (nil while healthy); see
	// ErrFailed.
	failed error
	// notify is closed and replaced whenever the log grows, rotates, or
	// closes — the broadcast replication tailers block on (Updates).
	notify chan struct{}
	// stop ends the SyncInterval flusher goroutine.
	stop chan struct{}
	done chan struct{}
}

// Open opens (creating if absent) the log at path and recovers its
// contents: records are scanned front to back, the first invalid record
// truncates the file back to the last valid boundary, and everything after
// the checkpoint floor is returned for replay. The returned log is
// positioned for appends. An fsync policy Open does not know is refused.
func Open(path string, opts Options) (*Log, *Replay, error) {
	if opts.Policy > SyncOff {
		return nil, nil, fmt.Errorf("wal: unknown fsync policy %d", uint8(opts.Policy))
	}
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	fsys := fault.OrOS(opts.FS)
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{f: f, fs: fsys, path: path, opts: opts, notify: make(chan struct{})}
	rep, err := l.recover()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if opts.Logger != nil {
		opts.Logger.Info("wal opened",
			slog.String("path", path),
			slog.Uint64("base_seq", rep.BaseSeq),
			slog.Uint64("seq", l.seq),
			slog.Uint64("epoch", l.epoch),
			slog.Int("replay_records", len(rep.Records)),
			slog.Int64("truncated_bytes", rep.TruncatedBytes))
	}
	if opts.Policy == SyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.flusher()
	}
	return l, rep, nil
}

// recover reads the header (writing a fresh one into an empty file), scans
// the records, truncates any torn tail, and leaves the file positioned at
// its end.
func (l *Log) recover() (*Replay, error) {
	fi, err := l.f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() == 0 {
		hdr := encodeHeader(l.opts.BaseSeq, l.opts.Epoch)
		if _, err := l.f.Write(hdr[:]); err != nil {
			return nil, err
		}
		if err := l.syncLocked(); err != nil {
			return nil, err
		}
		l.bytes = headerSize
		l.epoch = l.opts.Epoch
		l.seq, l.baseSeq = l.opts.BaseSeq, l.opts.BaseSeq
		return &Replay{BaseSeq: l.opts.BaseSeq}, nil
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(l.f, 1<<20)
	hdr, err := ReadHeader(br)
	if err != nil {
		return nil, err
	}
	l.epoch = hdr.Epoch

	records, good, err := scanRecords(br, hdr.Len)
	if err != nil {
		return nil, err
	}
	rep := &Replay{BaseSeq: hdr.BaseSeq, TruncatedBytes: fi.Size() - good}
	l.seq, l.baseSeq, l.bytes = hdr.BaseSeq, hdr.BaseSeq, good
	for _, r := range records {
		if r.Seq > l.seq {
			l.seq = r.Seq
		}
		if r.Type == TypeCheckpoint && r.Seq > rep.BaseSeq {
			rep.BaseSeq = r.Seq
		}
	}
	l.baseSeq = rep.BaseSeq
	for _, r := range records {
		if r.Type != TypeCheckpoint && r.Seq > rep.BaseSeq {
			rep.Records = append(rep.Records, r)
		}
	}
	if rep.TruncatedBytes > 0 {
		if err := l.f.Truncate(good); err != nil {
			return nil, err
		}
	}
	if _, err := l.f.Seek(good, io.SeekStart); err != nil {
		return nil, err
	}
	return rep, nil
}

// encodeHeader lays out a log file header.
func encodeHeader(baseSeq, epoch uint64) [headerSize]byte {
	var hdr [headerSize]byte
	copy(hdr[:], logMagic)
	binary.LittleEndian.PutUint32(hdr[4:], logVersion)
	binary.LittleEndian.PutUint64(hdr[8:], baseSeq)
	binary.LittleEndian.PutUint64(hdr[16:], epoch)
	return hdr
}

// Header is a decoded log file header.
type Header struct {
	// Version is the format version (always 2: ReadHeader refuses others).
	Version uint32
	// BaseSeq is the checkpoint floor the paired snapshot covers.
	BaseSeq uint64
	// Epoch is the replication fencing epoch.
	Epoch uint64
	// Len is the header's on-disk length; records start at this offset.
	Len int64
}

// ReadHeader reads and validates a log file header. Any version other than
// the current one is refused before the rest of the header is read;
// Header.Len tells the caller where records start.
func ReadHeader(r io.Reader) (Header, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:8]); err != nil {
		return Header{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if string(hdr[:4]) != logMagic {
		return Header{}, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != logVersion {
		return Header{}, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	if _, err := io.ReadFull(r, hdr[8:]); err != nil {
		return Header{}, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	return Header{
		Version: logVersion,
		BaseSeq: binary.LittleEndian.Uint64(hdr[8:]),
		Epoch:   binary.LittleEndian.Uint64(hdr[16:]),
		Len:     headerSize,
	}, nil
}

// ReadFrame reads one record frame from r, verifying its CRC. It returns
// io.EOF when r ends cleanly on a frame boundary and ErrTornFrame when the
// frame is cut short, fails its checksum, or carries an impossible length
// or type — the wire-side twin of the on-disk tail scan, so a replication
// stream detects a torn record exactly as crash recovery does.
func ReadFrame(r io.Reader) (Record, error) {
	var prefix [8]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF // clean boundary
		}
		return Record{}, ErrTornFrame // mid-prefix cut
	}
	length := binary.LittleEndian.Uint32(prefix[0:])
	crc := binary.LittleEndian.Uint32(prefix[4:])
	if length < 13 || length > maxRecordBytes {
		return Record{}, ErrTornFrame
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Record{}, ErrTornFrame // torn body
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return Record{}, ErrTornFrame // bit rot or torn write
	}
	rec := Record{
		Type: Type(payload[0]),
		Seq:  binary.LittleEndian.Uint64(payload[1:]),
		ID:   binary.LittleEndian.Uint32(payload[9:]),
	}
	if len(payload) > 13 {
		rec.Data = payload[13:]
	}
	switch rec.Type {
	case TypeInsert, TypeRemove, TypeCheckpoint:
	default:
		return Record{}, ErrTornFrame // unknown type: stop, do not guess
	}
	return rec, nil
}

// scanRecords parses records until EOF or the first invalid record,
// returning the parsed records and the byte offset one past the last valid
// record. It never fails on malformed bytes — they simply end the scan —
// so a torn or corrupt tail degrades to a shorter valid prefix.
func scanRecords(br *bufio.Reader, start int64) ([]Record, int64, error) {
	var records []Record
	good := start
	for {
		rec, err := ReadFrame(br)
		if err != nil {
			// Clean EOF or a torn/corrupt frame: the log ends here.
			return records, good, nil
		}
		records = append(records, rec)
		good += int64(recordOverhead + len(rec.Data))
	}
}

// EncodeFrame lays rec out in its frame — the length/CRC-prefixed layout
// shared by the log file and the replication wire protocol.
func EncodeFrame(rec Record) []byte {
	length := 13 + len(rec.Data)
	buf := make([]byte, 8+length)
	binary.LittleEndian.PutUint32(buf[0:], uint32(length))
	buf[8] = byte(rec.Type)
	binary.LittleEndian.PutUint64(buf[9:], rec.Seq)
	binary.LittleEndian.PutUint32(buf[17:], rec.ID)
	copy(buf[21:], rec.Data)
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[8:]))
	return buf
}

// failLocked trips the log into its sticky fail-stop state (first failure
// wins) and returns the error to surface. Caller holds l.mu.
func (l *Log) failLocked(op string, cause error) error {
	if l.failed == nil {
		l.failed = fmt.Errorf("%w: %s: %w", ErrFailed, op, cause)
		if l.opts.Logger != nil {
			l.opts.Logger.Error("wal failed",
				slog.String("op", op),
				slog.String("error", cause.Error()),
				slog.Uint64("seq", l.seq),
				slog.Uint64("epoch", l.epoch))
		}
	}
	return l.failed
}

// Err returns the log's sticky failure, nil while healthy. Once non-nil it
// never clears: the process must fall back to read-only serving and the
// log be repaired (or replaced) out of band.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Append writes one record to the log, fsyncing per the configured policy.
// On error the in-memory counters are not advanced; the file may hold a
// partial frame, which the next Open truncates away like any torn tail. A
// write or fsync error is fail-stop: the log trips into its sticky failed
// state and every later Append is rejected with it.
func (l *Log) Append(rec Record) (err error) {
	if l.opts.OnAppend != nil {
		defer func() { l.opts.OnAppend(err) }()
	}
	if len(rec.Data) > maxRecordBytes-13 {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte bound", len(rec.Data), maxRecordBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return l.failed
	}
	buf := EncodeFrame(rec)
	if _, err := l.f.Write(buf); err != nil {
		return l.failLocked("append", err)
	}
	l.bytes += int64(len(buf))
	l.seq = rec.Seq
	// Every policy marks the file dirty; SyncAlways clears it immediately
	// below, and Close flushes whatever is still pending (so even SyncOff
	// leaves a durable file behind a clean shutdown).
	l.dirty = true
	if l.opts.Policy == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return l.failLocked("fsync", err)
		}
	}
	l.bumpLocked()
	return nil
}

// bumpLocked wakes everyone blocked on Updates: the current notify channel
// is closed and replaced. Caller holds l.mu.
func (l *Log) bumpLocked() {
	close(l.notify)
	l.notify = make(chan struct{})
}

// Updates returns a channel that is closed the next time the log grows,
// rotates, or closes. Wait on it, re-check the log state (Stats), then call
// Updates again for a fresh channel — the replication stream tails the log
// this way instead of polling. Once the log is closed, Updates returns nil
// (the woken waiter's signal to stop tailing).
func (l *Log) Updates() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.notify
}

// Tail reads a log's records after a sequence number through its own read
// handle on the log's filesystem, following appends and rotations: Read
// returns what is on disk now, Updates says when to Read again. It is the
// replication stream's source, for one goroutine at a time.
type Tail struct {
	log  *Log
	f    fault.File
	br   *bufio.Reader
	off  int64  // offset of the next unread frame in f
	last uint64 // the highest seq delivered, or the starting position
	rot  uint64 // the log's rotation count when f was opened
}

// Tail opens a reader of the records with seq > after. It returns
// ErrBelowFloor when after is below the checkpoint floor (those records
// live only in the snapshot now) and ErrClosed on a closed log.
func (l *Log) Tail(after uint64) (*Tail, error) {
	t := &Tail{log: l, last: after}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := t.openLocked(); err != nil {
		return nil, err
	}
	t.br = bufio.NewReaderSize(t.f, 1<<20)
	return t, nil
}

// openLocked points the tail at the file now at the log's path; l.mu keeps
// a rotation from running between the floor check and the open.
func (t *Tail) openLocked() error {
	l := t.log
	if l.closed {
		return ErrClosed
	}
	if t.last < l.baseSeq {
		return fmt.Errorf("%w: %d is below %d", ErrBelowFloor, t.last, l.baseSeq)
	}
	f, err := l.fs.Open(l.path)
	if err != nil {
		return err
	}
	if t.f != nil {
		t.f.Close()
	}
	t.f, t.off, t.rot = f, headerSize, l.checkpoints
	return nil
}

// Read appends to dst the whole records past the tail's position that are
// on disk now and moves the position past them; a frame still being
// written waits for a later Read. After a rotation Read continues in the
// new file without repeating a record, or returns ErrBelowFloor when the
// new floor passed the position. A closed log returns ErrClosed. A Read
// that finds nothing new allocates nothing.
func (t *Tail) Read(dst []Record) ([]Record, error) {
	l := t.log
	l.mu.Lock()
	var err error
	if l.closed || l.checkpoints != t.rot {
		err = t.openLocked()
	}
	size := l.bytes
	l.mu.Unlock()
	if err != nil || size <= t.off {
		return dst, err
	}
	if _, err := t.f.Seek(t.off, io.SeekStart); err != nil {
		return dst, err
	}
	t.br.Reset(t.f)
	for {
		rec, err := ReadFrame(t.br)
		if err != nil {
			return dst, nil // clean end, or a frame not yet whole
		}
		t.off += int64(recordOverhead + len(rec.Data))
		if rec.Seq > t.last {
			dst = append(dst, rec)
			t.last = rec.Seq
		}
	}
}

// Updates is the log's Updates: closed when there may be more to Read.
func (t *Tail) Updates() <-chan struct{} { return t.log.Updates() }

// Close releases the tail's read handle.
func (t *Tail) Close() error { return t.f.Close() }

// Sync forces buffered records to stable storage regardless of policy. An
// fsync error is fail-stop, like on the append path.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	if l.failed != nil {
		return l.failed
	}
	if err := l.syncLocked(); err != nil {
		return l.failLocked("fsync", err)
	}
	return nil
}

func (l *Log) syncLocked() error {
	start := time.Now()
	err := l.f.Sync()
	if l.opts.OnFsync != nil {
		l.opts.OnFsync(time.Since(start), err)
	}
	if err != nil {
		return err
	}
	l.dirty = false
	l.lastSync = time.Now()
	return nil
}

// flusher is the SyncInterval background goroutine: it fsyncs dirty data on
// the configured cadence until Close. A background fsync failure trips the
// same fail-stop state as a foreground one — acknowledged-but-unsynced
// records are exactly what SyncInterval is allowed to lose in a crash, but
// an fsync that *errors* means nothing further can be promised, so the log
// stops accepting appends instead of silently dropping durability.
func (l *Log) flusher() {
	defer close(l.done)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if l.dirty && !l.closed && l.failed == nil {
				if err := l.syncLocked(); err != nil {
					_ = l.failLocked("background fsync", err)
				}
			}
			l.mu.Unlock()
		}
	}
}

// Checkpoint rotates the log after a snapshot containing every mutation
// with seq ≤ snapSeq has been durably written: records at or below the
// floor are dropped, the survivors (plus a leading checkpoint record) move
// to a fresh log file that replaces the old one by atomic rename. A crash
// at any point leaves either the old log (fully covering the snapshot gap —
// replay is idempotent) or the new one; never neither.
//
// A failure before the rename leaves the old log intact and appendable —
// the rotation simply didn't happen — so those errors are returned without
// tripping the fail-stop state. A failure on the initial fsync (the old
// log's own durability) or after the rename (the swap is half-done) does
// trip it.
//
// The caller must serialize Checkpoint against Append (the act layer holds
// its mutation lock across snapshot + rotation).
func (l *Log) Checkpoint(snapSeq uint64) (err error) {
	if l.opts.OnRotate != nil {
		defer func() { l.opts.OnRotate(err) }()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return l.failed
	}
	// Harvest the residual from the current file (records are on disk by
	// definition of the append path; re-reading beats holding every record
	// in memory forever).
	if err := l.syncLocked(); err != nil {
		return l.failLocked("fsync", err)
	}
	if _, err := l.f.Seek(headerSize, io.SeekStart); err != nil {
		return l.failLocked("checkpoint seek", err)
	}
	records, _, err := scanRecords(bufio.NewReaderSize(l.f, 1<<20), headerSize)
	// Restore the append position immediately: the harvest's buffered
	// reader read ahead of what it consumed, and any failure below must
	// leave the old log appendable at its true end.
	if _, serr := l.f.Seek(l.bytes, io.SeekStart); serr != nil {
		return l.failLocked("checkpoint seek", serr)
	}
	if err != nil {
		return err
	}

	newSeq := snapSeq
	next, err := fault.Stage(l.fs, l.path, func(w io.Writer) error {
		// bufio's first write error sticks and Flush reports it.
		bw := bufio.NewWriterSize(w, 1<<20)
		hdr := encodeHeader(snapSeq, l.epoch)
		bw.Write(hdr[:])
		bw.Write(EncodeFrame(Record{Type: TypeCheckpoint, Seq: snapSeq}))
		for _, r := range records {
			if r.Type == TypeCheckpoint || r.Seq <= snapSeq {
				continue
			}
			bw.Write(EncodeFrame(r))
			newSeq = max(newSeq, r.Seq)
		}
		return bw.Flush()
	})
	if err != nil {
		return err
	}
	defer next.Discard()
	if err := next.Commit(); err != nil {
		if errors.Is(err, fault.ErrUnsynced) {
			return l.failLocked("checkpoint dir sync", err)
		}
		return err
	}
	// The temp handle now refers to the live log file (rename moved the
	// inode, not the descriptor); keep it as the log, positioned at the end.
	f := next.Keep()
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return l.failLocked("checkpoint", err)
	}
	old := l.f
	l.f = f
	_ = old.Close()
	l.baseSeq = snapSeq
	l.seq = newSeq
	l.bytes = end
	l.dirty = false
	l.lastSync = time.Now()
	l.checkpoints++
	l.bumpLocked() // rotation moved the floor; tailers must re-handshake
	if l.opts.Logger != nil {
		l.opts.Logger.Info("wal rotated",
			slog.Uint64("base_seq", l.baseSeq),
			slog.Uint64("seq", l.seq),
			slog.Uint64("epoch", l.epoch),
			slog.Int64("bytes", l.bytes),
			slog.Uint64("checkpoints", l.checkpoints))
	}
	return nil
}

// Stats returns the log's durability counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Seq:         l.seq,
		BaseSeq:     l.baseSeq,
		Epoch:       l.epoch,
		Bytes:       l.bytes,
		LastSync:    l.lastSync,
		Checkpoints: l.checkpoints,
	}
	if l.failed != nil {
		st.Failed = l.failed.Error()
	}
	return st
}

// Close flushes outstanding records (fsyncing only when something is
// actually pending — a SyncAlways log pays no extra flush) and closes the
// file. Waiters on Updates are woken and observe the closed log. It is
// idempotent. A failed log closes without flushing — its tail is already
// suspect, and the flush would mask the original failure.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.notify) // final broadcast; closed stays closed
	stop := l.stop
	l.mu.Unlock()
	// Retire the flusher before the final flush: once it has exited, no
	// goroutine can touch the file again and the sync below is the last
	// write-path operation — no flush-after-close window, no double fsync.
	if stop != nil {
		close(stop)
		<-l.done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var syncErr error
	if l.dirty && l.failed == nil {
		syncErr = l.f.Sync()
	}
	closeErr := l.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
