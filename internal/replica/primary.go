// Package replica implements primary → follower replication for durable
// ACT indexes over HTTP.
//
// The primary is an ordinary durable index (a WAL plus a checkpoint
// snapshot), and the index is the only owner of both files: NewPrimary
// takes the index alone, serves the snapshot at its Status().WAL.SnapshotPath
// for bootstrapping, and streams the log through the log's own tail reader
// (Index.WALTail) as a resumable record stream, reusing the log's
// length-prefixed, per-record-CRC'd frame layout on the wire — a stream
// cut mid-record is detected exactly like a torn tail on disk, and the
// follower resumes from the last whole record. The follower (Follower)
// bootstraps from the snapshot, applies streamed records into its delta
// overlay in batches (act.Index.ApplyReplicated), and swings epochs as
// batches land, so readers on the follower never block; background
// compaction folds the overlay down and keeps a long-lived follower's
// memory bounded.
//
// The handshake is sequence-based. A follower asks for records after seq N;
// the primary answers 410 Gone when N has fallen below the log's checkpoint
// floor (the records were folded into a newer snapshot), which tells the
// follower to bootstrap from the current snapshot instead of replaying a
// hole. Log rotation mid-stream ends the stream the same way when the new
// floor passed the follower; otherwise the tail continues in the rotated
// file. Everything the follower applies is idempotent, so any overlap
// between snapshot and resume point is absorbed. The follower lands each
// downloaded snapshot through the same replace routine (fault.Stage) the
// primary's checkpoints and log rotations use.
//
// Failover is fenced by an epoch number. Both sides stamp X-Act-Epoch on
// every exchange: a follower that gets promoted bumps the epoch, and the
// moment the old primary sees a request carrying a higher epoch it fences
// itself — every /replication/* response from then on is 412 Precondition
// Failed and its index rejects further mutations. A fenced epoch never
// unfences, so at most one index lineage is ever mutable per epoch and a
// resurrected stale primary cannot re-acquire followers or acknowledge
// writes that the new primary's history does not contain.
package replica

import (
	"errors"
	"io"
	"io/fs"
	"net/http"
	"os"
	"strconv"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/wal"
)

// Wire protocol names.
const (
	// SnapshotPath is the bootstrap endpoint: the current checkpoint
	// snapshot as an octet stream, with HeaderBaseSeq carrying the seq
	// floor the snapshot covers.
	SnapshotPath = "/replication/snapshot"
	// StreamPath is the record stream endpoint; the "after" query
	// parameter carries the follower's resume sequence.
	StreamPath = "/replication/stream"
	// HeaderBaseSeq is the response header carrying the checkpoint floor:
	// on a snapshot response, the floor the snapshot covers; on a 410, the
	// floor the follower's resume point fell below.
	HeaderBaseSeq = "X-Act-Base-Seq"
	// headerHeadSeq, on a snapshot response, carries the primary's head
	// sequence read after the file was opened, so at or above all it holds.
	headerHeadSeq = "X-Act-Head-Seq"
	// HeaderEpoch carries the replication fencing epoch, both ways: a
	// follower announces the highest epoch it has learned on every
	// request, and the primary stamps its own epoch on every response. A
	// request announcing a higher epoch fences the primary (see
	// Primary.fenceCheck); a response announcing a lower epoch than the
	// follower knows marks the server as a stale, superseded primary.
	HeaderEpoch = "X-Act-Epoch"
)

// defaultHeartbeat is the idle-stream heartbeat cadence: a synthetic
// checkpoint frame carrying the primary's current sequence, letting the
// follower measure lag (and the connection prove liveness) without data.
const defaultHeartbeat = 2 * time.Second

// Primary serves a durable index's snapshot and log stream to followers.
// It holds only read handles: the index keeps writing its WAL and rotating
// it at checkpoints exactly as without replication.
type Primary struct {
	idx *act.Index
	// Heartbeat is the idle-stream heartbeat cadence (default 2s); tests
	// shrink it. Set before the first request.
	Heartbeat time.Duration
}

// NewPrimary wires a primary around a durable index, serving the
// checkpoint snapshot the index writes (Status().WAL.SnapshotPath, read per
// request) and the log it appends to.
func NewPrimary(idx *act.Index) *Primary {
	return &Primary{idx: idx, Heartbeat: defaultHeartbeat}
}

// Mount registers the replication endpoints on mux.
func (p *Primary) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET "+SnapshotPath, p.ServeSnapshot)
	mux.HandleFunc("GET "+StreamPath, p.ServeStream)
}

// fenceCheck enforces the epoch protocol on one request. It adopts any
// higher epoch the request announces (fencing this primary: a promotion
// happened elsewhere), then answers 412 and reports false if the primary is
// fenced; otherwise it stamps the primary's epoch on the response and
// reports true. The check is first in every handler so a stale primary
// stops serving the moment the new epoch reaches it.
func (p *Primary) fenceCheck(w http.ResponseWriter, r *http.Request) bool {
	st := p.idx.Status()
	if s := r.Header.Get(HeaderEpoch); s != "" {
		if theirs, err := strconv.ParseUint(s, 10, 64); err == nil && theirs > st.WAL.Epoch {
			p.idx.Fence(theirs)
			st = p.idx.Status()
		}
	}
	if st.FencedAt != 0 {
		w.Header().Set(HeaderEpoch, strconv.FormatUint(st.FencedAt, 10))
		http.Error(w, "primary is fenced: a newer epoch has been promoted", http.StatusPreconditionFailed)
		return false
	}
	w.Header().Set(HeaderEpoch, strconv.FormatUint(st.WAL.Epoch, 10))
	return true
}

// ServeSnapshot serves the checkpoint snapshot, forcing one first when
// none exists yet (a primary that has never compacted). The seq floor is
// read from the log BEFORE the file is opened: a checkpoint racing in
// between makes the served file newer than the advertised floor, which the
// follower's idempotent replay absorbs — the reverse order could advertise
// a floor the file does not reach. The head is read after the open, so it
// bounds the file from above: a follower counts it as announced, and is not
// promoted before it has streamed that far.
func (p *Primary) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	if !p.fenceCheck(w, r) {
		return
	}
	path := p.idx.Status().WAL.SnapshotPath
	if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
		if err := p.idx.Checkpoint(r.Context()); err != nil {
			http.Error(w, "creating bootstrap snapshot: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	baseSeq := p.idx.Status().WAL.BaseSeq
	f, err := os.Open(path)
	if err != nil {
		http.Error(w, "opening snapshot: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		http.Error(w, "snapshot stat: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	w.Header().Set(HeaderBaseSeq, strconv.FormatUint(baseSeq, 10))
	w.Header().Set(headerHeadSeq, strconv.FormatUint(p.idx.Status().WAL.Seq, 10))
	_, _ = io.Copy(w, f)
}

// ServeStream serves the log as a long-lived record stream: every record
// with seq > after, in log order, in the log's own frame layout, followed
// by whatever the log appends for as long as the follower stays connected.
// Heartbeat checkpoint frames carry the primary's head sequence: one right
// after the backlog, then one per idle Heartbeat period. The stream ends
// when the client goes away, the log closes, the primary is fenced by a
// newer epoch, or a rotation moves the floor past the follower (who then
// re-syncs and is told 410 → bootstrap).
func (p *Primary) ServeStream(w http.ResponseWriter, r *http.Request) {
	if !p.fenceCheck(w, r) {
		return
	}
	var after uint64
	if s := r.URL.Query().Get("after"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, `bad "after" sequence`, http.StatusBadRequest)
			return
		}
		after = v
	}
	tail, err := p.idx.WALTail(after)
	if errors.Is(err, wal.ErrBelowFloor) {
		// The resume point predates the checkpoint floor: those records
		// were folded into a newer snapshot. Hand the follower the
		// snapshot, not a hole.
		w.Header().Set(HeaderBaseSeq, strconv.FormatUint(p.idx.Status().WAL.BaseSeq, 10))
		http.Error(w, "resume point is below the checkpoint floor; bootstrap from the snapshot", http.StatusGone)
		return
	}
	if err != nil {
		http.Error(w, "opening log: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer tail.Close()

	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}

	heartbeat := p.Heartbeat
	if heartbeat <= 0 {
		heartbeat = defaultHeartbeat
	}
	tick := time.NewTicker(heartbeat)
	defer tick.Stop()

	var recs []wal.Record
	// The first heartbeat follows the backlog at once: a follower learns at
	// connect time whether it has caught up (so a promotion drain ends).
	for beat := true; ; {
		// A promotion can fence this primary mid-stream; stop feeding the
		// follower records the new epoch's history may not contain.
		if p.idx.Status().FencedAt != 0 {
			return
		}
		// Fetch the wake channel before reading, so an append that lands
		// during the read re-arms the loop instead of being missed. The
		// read ends the stream when the log closed (the primary is
		// shutting down) or a rotation moved the floor past the follower,
		// whose re-sync then gets 410 → bootstrap. A heartbeat's head is
		// read first, so the records read reach it.
		updates := tail.Updates()
		var head uint64
		if beat {
			head = p.idx.Status().WAL.Seq
		}
		if recs, err = tail.Read(recs[:0]); err != nil {
			return
		}
		if beat {
			recs = append(recs, wal.Record{Type: wal.TypeCheckpoint, Seq: head})
		}
		for _, rec := range recs {
			if _, err := w.Write(wal.EncodeFrame(rec)); err != nil {
				return // client went away
			}
		}
		if len(recs) > 0 && flusher != nil {
			flusher.Flush()
		}

		select {
		case <-r.Context().Done():
			return
		case <-updates:
			beat = false
		case <-tick.C:
			beat = true
		}
	}
}
