package replica

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/fault"
	"github.com/actindex/act/internal/wal"
)

// Status is a point-in-time snapshot of a follower's replication state; the
// JSON names are those of actserve's /stats replication object.
type Status struct {
	// Connected reports whether a record stream is currently open.
	Connected bool `json:"connected"`
	// AppliedSeq is the follower's replication position, the one the
	// stream resumes from and Promote continues from: the snapshot's floor
	// (X-Act-Base-Seq) after a bootstrap, then the newest streamed record
	// landed in the serving index. PrimarySeq is the newest sequence the
	// primary has announced (records, heartbeats, a snapshot's head, a
	// 410's floor). PrimarySeq - AppliedSeq is the lag.
	AppliedSeq uint64 `json:"appliedSeq"`
	PrimarySeq uint64 `json:"primarySeq"`
	// Epoch is the highest replication fencing epoch the follower has
	// learned from the primary's responses.
	Epoch uint64 `json:"epoch"`
	// Reconnects counts stream (re)connections beyond the first;
	// Bootstraps counts snapshot downloads (1 after a clean start).
	Reconnects uint64 `json:"reconnects"`
	Bootstraps uint64 `json:"bootstraps"`
	// LastError is the most recent sync error ("" while healthy).
	LastError string `json:"lastError,omitempty"`
}

// Lag returns the sequence distance to the primary.
func (s Status) Lag() uint64 { return max(s.PrimarySeq, s.AppliedSeq) - s.AppliedSeq }

// maxBatchRecords caps one ApplyReplicated batch during catch-up: big
// enough to amortize the overlay rebuild, small enough that the epoch
// swings (and compaction triggers) keep pace with the stream.
const maxBatchRecords = 256

// idleTimeout is the stream watchdog: with heartbeats every 2s, a stream
// that delivers no frame for this long is dead (half-open TCP, a wedged
// primary) and gets cut so Run can reconnect.
const idleTimeout = 30 * time.Second

// Follower tracks a replication primary: it bootstraps from the primary's
// checkpoint snapshot, applies the streamed log records, and keeps
// retrying with jittered backoff across stream loss, primary restarts, and
// log rotations (a 410 from the primary re-bootstraps from the fresh
// snapshot). Each bootstrapped index is published into the served
// act.Swappable, the one place the follower and its readers find it. When
// the primary dies for good, Promote turns the follower into the next
// primary under a bumped, fenced epoch.
type Follower struct {
	primaryURL string
	dir        string
	served     *act.Swappable
	opts       []act.Option

	// Client is the HTTP client used for snapshot and stream requests.
	// The default carries dial, TLS, and response-header timeouts but no
	// overall request timeout — the stream is long-lived by design; stream
	// liveness is enforced by the idleTimeout watchdog instead. Replace
	// before Run (tests substitute fault-injecting transports).
	Client *http.Client
	// Backoff bounds the reconnect delay (min grows to max by doubling;
	// each wait is jittered to half its nominal value or more, so a herd
	// of followers losing one primary does not reconnect in lockstep).
	// Defaults: 100ms to 5s. Set before Run.
	BackoffMin, BackoffMax time.Duration
	// Token, when set, is presented to the primary as a bearer token on
	// every replication request. Set before Run.
	Token string
	// Logger, when set, receives the follower's structured replication
	// events (bootstraps, stream loss and backoff, re-bootstrap triggers,
	// promotion). Nil disables logging. Set before Run.
	Logger *slog.Logger

	// session is held by the stream's one reader at a time: Run around
	// each connection lifetime, Promote around its drain and the promotion.
	// Under mu, stop cancels Run's current session, and resume is set while
	// a Promote holds the stream and closed when it lets go.
	session   sync.Mutex
	mu        sync.Mutex
	status    Status
	connected bool // a stream has been opened at least once
	stop      context.CancelFunc
	resume    chan struct{}
}

// NewFollower wires a follower of the primary at primaryURL (scheme +
// host, no path) that publishes every bootstrapped index into served;
// served.Load is the index it replicates into. Downloaded snapshots land
// in dir; opts are passed to act.OpenFollower (WithDeltaThreshold etc.).
func NewFollower(primaryURL, dir string, served *act.Swappable, opts ...act.Option) *Follower {
	return &Follower{
		primaryURL: primaryURL,
		dir:        dir,
		served:     served,
		opts:       opts,
		Client: &http.Client{
			Transport: &http.Transport{
				DialContext: (&net.Dialer{
					Timeout:   5 * time.Second,
					KeepAlive: 15 * time.Second,
				}).DialContext,
				TLSHandshakeTimeout:   5 * time.Second,
				ResponseHeaderTimeout: 10 * time.Second,
			},
		},
		BackoffMin: 100 * time.Millisecond,
		BackoffMax: 5 * time.Second,
	}
}

// logf logs one replication event when a Logger is attached.
func (f *Follower) logf(level slog.Level, msg string, attrs ...any) {
	if f.Logger != nil {
		f.Logger.Log(context.Background(), level, msg, attrs...)
	}
}

// Status returns the current replication status.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.status
}

// newRequest builds a replication request carrying the follower's bearer
// token and the highest epoch it has learned (the fencing announcement: a
// primary that sees a higher epoch than its own fences itself).
func (f *Follower) newRequest(ctx context.Context, url string) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if f.Token != "" {
		req.Header.Set("Authorization", "Bearer "+f.Token)
	}
	req.Header.Set(HeaderEpoch, strconv.FormatUint(f.Status().Epoch, 10))
	return req, nil
}

// noteEpoch folds a response's epoch announcement into the follower's
// view: higher epochs are adopted; a lower one means the responding server
// is a stale, superseded primary whose data must not be applied.
func (f *Follower) noteEpoch(resp *http.Response) error {
	s := resp.Header.Get(HeaderEpoch)
	if s == "" {
		return nil // pre-fencing primary
	}
	theirs, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return fmt.Errorf("replica: bad %s header %q", HeaderEpoch, s)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if theirs < f.status.Epoch {
		return fmt.Errorf("replica: primary announces epoch %d but epoch %d has been promoted; refusing stale primary", theirs, f.status.Epoch)
	}
	f.status.Epoch = theirs
	return nil
}

// Bootstrap downloads the primary's checkpoint snapshot, opens it as a
// follower index, and publishes it into served (the previous index is not
// closed: in-flight readers may hold it). The snapshot's floor becomes the
// follower's position, and idempotent replay absorbs whatever the file holds
// beyond it; its head counts as announced, so Promote waits for the stream
// to reach it. A short or torn download (the body ending before the
// announced Content-Length) is discarded without publishing anything. Run
// calls this as needed; calling it once before Run lets a server fail fast
// (and serve immediately) instead of coming up empty.
func (f *Follower) Bootstrap(ctx context.Context) error {
	req, err := f.newRequest(ctx, f.primaryURL+SnapshotPath)
	if err != nil {
		return err
	}
	resp, err := f.Client.Do(req)
	if err != nil {
		return fmt.Errorf("replica: snapshot request: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("replica: snapshot request: %s: %s", resp.Status, body)
	}
	if err := f.noteEpoch(resp); err != nil {
		return err
	}
	baseSeq, err := strconv.ParseUint(resp.Header.Get(HeaderBaseSeq), 10, 64)
	if err != nil {
		return fmt.Errorf("replica: snapshot response lacks a valid %s header: %w", HeaderBaseSeq, err)
	}
	head, _ := strconv.ParseUint(resp.Header.Get(headerHeadSeq), 10, 64) // absent: 0

	// Land the snapshot atomically and durably through the replace routine
	// every durable file shares: neither a connection cut mid-download nor
	// a power cut after the rename leaves a torn file where the next start
	// expects an index.
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(f.dir, "follower.snapshot")
	var n int64
	snap, err := fault.Stage(fault.OS{}, path, func(w io.Writer) (err error) {
		if n, err = io.Copy(w, resp.Body); err != nil {
			return fmt.Errorf("replica: downloading snapshot: %w", err)
		}
		if resp.ContentLength >= 0 && n != resp.ContentLength {
			return fmt.Errorf("replica: snapshot download truncated: got %d of %d bytes", n, resp.ContentLength)
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer snap.Discard()
	if err := snap.Commit(); err != nil {
		return err
	}

	// OpenFollower validates the file end to end (magic, section bounds,
	// checksums where the format carries them); a corrupted-in-flight body
	// that kept its length dies here, before anything is published.
	idx, err := act.OpenFollower(path, f.opts...)
	if err != nil {
		return fmt.Errorf("replica: opening snapshot: %w", err)
	}
	f.served.Swap(idx)
	f.mu.Lock()
	f.status.Bootstraps++
	f.status.AppliedSeq = baseSeq
	f.status.PrimarySeq = max(f.status.PrimarySeq, baseSeq, head)
	bootstraps, epoch := f.status.Bootstraps, f.status.Epoch
	f.mu.Unlock()
	f.logf(slog.LevelInfo, "replication bootstrap",
		slog.Int64("bytes", n),
		slog.Uint64("base_seq", baseSeq),
		slog.Uint64("bootstraps", bootstraps),
		slog.Uint64("epoch", epoch))
	return nil
}

var (
	// errBootstrap signals that the primary's floor passed our resume
	// point: re-bootstrap from the snapshot instead of backing off.
	errBootstrap = errors.New("replica: primary checkpointed past the resume point")
	// errPromoted refuses Run and Promote once the follower's index is a
	// primary.
	errPromoted = errors.New("replica: follower has been promoted")
)

// Run drives the replication loop until ctx is cancelled: bootstrap when
// needed, stream, apply, and reconnect with jittered exponential backoff
// on stream loss. A Promote pauses it; afterwards it streams on from the
// follower's position, or returns errPromoted, as it does at once on a
// promoted index. It returns ctx.Err() on cancellation.
func (f *Follower) Run(ctx context.Context) error {
	backoff := f.BackoffMin
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := f.runSession(ctx)
		if err == nil {
			// Made progress (stream ended cleanly, or a re-bootstrap
			// landed) or a Promote had the stream: go around immediately.
			backoff = f.BackoffMin
			continue
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, errPromoted) {
			return err
		}
		f.mu.Lock()
		f.status.LastError = err.Error()
		f.mu.Unlock()
		f.logf(slog.LevelWarn, "replication stream lost",
			slog.String("error", err.Error()),
			slog.Duration("backoff", backoff))
		// Jitter: wait between half the nominal backoff and the full value,
		// so followers that lost the same primary spread their retries
		// instead of stampeding it in lockstep.
		wait := backoff/2 + rand.N(backoff/2+1)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
		if backoff *= 2; backoff > f.BackoffMax {
			backoff = f.BackoffMax
		}
	}
}

// runSession runs one syncOnce for Run under the session lock, which
// Promote cancels through stop; while a Promote holds the stream, it waits
// for it instead. Both end in nil, and Run goes round at once.
func (f *Follower) runSession(ctx context.Context) error {
	f.session.Lock()
	f.mu.Lock()
	if resume := f.resume; resume != nil {
		f.mu.Unlock()
		f.session.Unlock()
		select {
		case <-resume:
		case <-ctx.Done():
		}
		return nil
	}
	sctx, cancel := context.WithCancel(ctx)
	f.stop = cancel
	f.mu.Unlock()
	defer f.session.Unlock()
	defer cancel()
	if err := f.syncOnce(sctx); sctx.Err() == nil || ctx.Err() != nil {
		return err
	}
	return nil // a Promote cancelled the session
}

// syncOnce runs one connection lifetime: ensure an index exists, then
// stream into it until the stream ends. A clean end (primary closed the
// stream, e.g. after rotating past us) returns nil; a 410 re-bootstraps
// from the newer snapshot, which the served index keeps serving until the
// new one is published.
func (f *Follower) syncOnce(ctx context.Context) error {
	idx := f.served.Load()
	if idx == nil {
		if err := f.Bootstrap(ctx); err != nil {
			return err
		}
		idx = f.served.Load()
	}
	if !idx.Status().Follower {
		return errPromoted
	}
	err := f.stream(ctx, idx, false)
	if errors.Is(err, errBootstrap) {
		// Our position fell below the checkpoint floor; the records we
		// need exist only in the newer snapshot now.
		f.logf(slog.LevelInfo, "replication re-bootstrap",
			slog.Uint64("applied_seq", f.Status().AppliedSeq),
			slog.String("reason", "primary checkpointed past resume point"))
		return f.Bootstrap(ctx)
	}
	return err
}

// stream opens the record stream at the follower's position and applies
// what it delivers to idx until the stream ends (nil on a clean end at a
// frame boundary). A 410 — the primary's checkpoint floor passed our
// position — returns errBootstrap, and a stream that goes silent past
// idleTimeout is cut and counts as lost. With untilCaughtUp (the promotion
// drain) it also returns nil at the first heartbeat that announces nothing
// beyond what is applied.
func (f *Follower) stream(ctx context.Context, idx *act.Index, untilCaughtUp bool) error {
	// The idle watchdog: each received frame pushes the deadline out; a
	// stream that delivers nothing (not even heartbeats) for idleTimeout
	// is dead and gets its request context cancelled, which unblocks the
	// pending read.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	watchdog := time.AfterFunc(idleTimeout, cancel)
	defer watchdog.Stop()

	after := strconv.FormatUint(f.Status().AppliedSeq, 10)
	u := f.primaryURL + StreamPath + "?after=" + url.QueryEscape(after)
	req, err := f.newRequest(ctx, u)
	if err != nil {
		return err
	}
	resp, err := f.Client.Do(req)
	if err != nil {
		return fmt.Errorf("replica: stream request: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGone {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("replica: stream request: %s: %s", resp.Status, body)
	}
	if err := f.noteEpoch(resp); err != nil {
		return err
	}
	if resp.StatusCode == http.StatusGone {
		// The floor is a sequence the primary has logged: until a bootstrap
		// reaches it the follower is behind, and Promote refuses.
		floor, _ := strconv.ParseUint(resp.Header.Get(HeaderBaseSeq), 10, 64)
		f.mu.Lock()
		f.status.PrimarySeq = max(f.status.PrimarySeq, floor)
		f.mu.Unlock()
		return errBootstrap
	}
	f.mu.Lock()
	if f.connected {
		f.status.Reconnects++
	}
	f.connected = true
	f.status.Connected = true
	f.status.LastError = ""
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.status.Connected = false
		f.mu.Unlock()
	}()

	br := bufio.NewReaderSize(resp.Body, 1<<20)
	batch := make([]wal.Record, 0, maxBatchRecords)
	for {
		// Block for one frame, then drain whatever else is already
		// buffered: catch-up applies in big amortized batches, steady
		// state applies each mutation as it arrives.
		rec, err := wal.ReadFrame(br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil // primary ended the stream on a boundary
			}
			return fmt.Errorf("replica: stream: %w", err)
		}
		watchdog.Reset(idleTimeout)
		batch = append(batch[:0], rec)
		for len(batch) < maxBatchRecords && br.Buffered() > 0 {
			rec, err := wal.ReadFrame(br)
			if err != nil {
				break // torn buffer tail: apply what we have, fail next read
			}
			batch = append(batch, rec)
		}
		caughtUp, err := f.apply(ctx, idx, batch)
		if err != nil || untilCaughtUp && caughtUp {
			return err
		}
	}
}

// apply lands one batch on the index and moves the follower's position past
// its mutation records (each is now in the index, applied or already in the
// snapshot); a heartbeat (or rotation marker) announces the primary's head.
// It reports caught up when the batch carried a heartbeat and everything
// the primary has announced is applied.
func (f *Follower) apply(ctx context.Context, idx *act.Index, batch []wal.Record) (caughtUp bool, err error) {
	if err := idx.ApplyReplicated(ctx, batch); err != nil {
		return false, fmt.Errorf("replica: applying batch: %w", err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	heartbeat := false
	for _, rec := range batch {
		f.status.PrimarySeq = max(f.status.PrimarySeq, rec.Seq)
		if rec.Type == wal.TypeCheckpoint {
			heartbeat = true
		} else {
			f.status.AppliedSeq = max(f.status.AppliedSeq, rec.Seq)
		}
	}
	return heartbeat && f.status.AppliedSeq >= f.status.PrimarySeq, nil
}

// Promotion is the result of a successful Promote: the now-mutable index,
// which owns its durability pair, so NewPrimary(Index) serves the next
// generation of followers.
type Promotion struct {
	Index *act.Index
	// Epoch is the fencing epoch the promotion established; Seq the
	// sequence number the new primary's history starts from.
	Epoch uint64
	Seq   uint64
}

// Promote turns the follower into the next primary: Run is paused (its
// session cancelled, the stream held until Promote returns), the stream
// drained of whatever the old primary can still deliver (best effort,
// bounded by ctx), and — provided the follower has applied every sequence
// the primary announced — the index becomes a mutable primary under a
// bumped epoch, continuing from the follower's position (see
// act.Index.Promote for the crash-safe ordering). A paused Run then returns
// errPromoted.
//
// Otherwise Promote refuses, since promoting would lose acknowledged writes
// ("no lost acks"), and Run streams on. It also refuses on a promoted index
// and while another Promote runs. The old primary, if it resurfaces, is
// fenced by the bumped epoch the moment any replication request reaches it.
func (f *Follower) Promote(ctx context.Context) (*Promotion, error) {
	f.mu.Lock()
	if f.resume != nil {
		f.mu.Unlock()
		return nil, errors.New("replica: a promotion is already in progress")
	}
	resume := make(chan struct{})
	f.resume = resume
	if f.stop != nil {
		f.stop()
	}
	f.mu.Unlock()
	f.session.Lock()
	defer func() {
		f.session.Unlock()
		f.mu.Lock()
		f.resume = nil
		f.mu.Unlock()
		close(resume)
	}()

	idx := f.served.Load()
	if idx == nil {
		return nil, errors.New("replica: nothing to promote: follower never bootstrapped")
	}
	if !idx.Status().Follower {
		return nil, errPromoted
	}

	// Best-effort drain: pick up whatever the old primary can still
	// deliver, so a reachable-but-degraded primary (e.g. fail-stopped WAL,
	// still serving reads) hands over its full history. Errors here are
	// expected — the usual reason for promoting is a dead primary — and a
	// 410 just ends the drain: the index being promoted stays.
	_ = f.stream(ctx, idx, true)

	st := f.Status()
	if st.AppliedSeq < st.PrimarySeq {
		return nil, fmt.Errorf("replica: refusing to promote: applied seq %d is behind the primary's announced %d (would lose acknowledged writes)", st.AppliedSeq, st.PrimarySeq)
	}

	newEpoch := st.Epoch + 1
	cfg := act.WALConfig{
		Path:         filepath.Join(f.dir, "promoted.wal"),
		SnapshotPath: filepath.Join(f.dir, "follower.snapshot"),
	}
	if err := idx.Promote(ctx, cfg, newEpoch, st.AppliedSeq); err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.status.Epoch = newEpoch
	f.mu.Unlock()
	f.logf(slog.LevelInfo, "follower promoted",
		slog.Uint64("epoch", newEpoch),
		slog.Uint64("seq", st.AppliedSeq))
	return &Promotion{Index: idx, Epoch: newEpoch, Seq: st.AppliedSeq}, nil
}
