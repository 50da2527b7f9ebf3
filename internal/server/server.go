package server

import (
	"bufio"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/geojson"
	"github.com/actindex/act/internal/obs"
	"github.com/actindex/act/internal/replica"
)

// BuildDefaults are the server's index-build parameters, used when a
// reload request does not override them.
type BuildDefaults struct {
	Precision float64
	Grid      act.GridKind
}

// Server is the HTTP API over a hot-swappable index: every handler loads
// the current index from the Swappable once per request, and POST /reload
// builds or deserializes a replacement and swaps it in under live traffic.
type Server struct {
	indexes  *act.Swappable
	defaults BuildDefaults
	// Logger receives one structured line per request (request id, route,
	// status, latency) plus server lifecycle events. Defaults to a discard
	// logger; actserve installs the process logger.
	Logger *slog.Logger
	// ReloadToken, when non-empty, gates the mutating endpoints — POST
	// /reload, POST /polygons, DELETE /polygons/{id} — behind an
	// "Authorization: Bearer <token>" header. They read server-local files
	// and/or change the live polygon set, so on anything but a loopback or
	// otherwise trusted listener it must be set (or the endpoints fronted
	// by real access control).
	ReloadToken string
	// MaxPolygonBytes caps a POST /polygons body; requests beyond it get
	// 413. NewServer sets the default (maxPolygonBody); lower it on
	// listeners where a 64 MB GeoJSON upload is not a legitimate request.
	MaxPolygonBytes int64
	// MaxJoinBytes and MaxReloadBytes cap the POST /join and POST /reload
	// bodies the same way (defaults maxJoinBody and maxReloadBody).
	MaxJoinBytes   int64
	MaxReloadBytes int64
	mux            *http.ServeMux
	// follower is the replication client EnableFollower set before serving:
	// POST /promote promotes it, and /stats reports its stream position
	// while the served index is still its follower. The role itself is the
	// served index's (see role); nothing here changes after serving starts.
	follower *replica.Follower
	// reloadMu serializes reloads: one in-flight rebuild at a time, while
	// lookups and joins keep serving the current index.
	reloadMu sync.Mutex
	// results are pooled: lookups are allocation-free, so the handler's
	// only steady-state allocations are the JSON encoder's.
	pool sync.Pool
	// metrics is the instrument set behind GET /metrics; otherDur and
	// otherBytes are the pre-resolved handles for requests that matched no
	// registered route (404s, bad methods).
	metrics    *Metrics
	otherDur   *obs.Histogram
	otherBytes *obs.Counter
	// limiter, when set by EnableMutationLimit, token-buckets the mutation
	// endpoints (POST /polygons, DELETE /polygons/{id}).
	limiter *tokenBucket
	// streams is cancelled by EndStreams; every /replication/stream
	// response ends with it or with its own request.
	streams    context.Context
	endStreams context.CancelFunc
}

// NewServer wires the routes around the swappable index holder. The
// optional metrics argument reuses an instrument set the caller created
// earlier (actserve makes one before building the index so WAL hooks can
// feed it); omitted, the server registers a fresh one. Either way the
// registry is served at GET /metrics.
func NewServer(indexes *act.Swappable, defaults BuildDefaults, metrics ...*Metrics) *Server {
	s := &Server{
		indexes:         indexes,
		defaults:        defaults,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
		MaxPolygonBytes: maxPolygonBody,
		MaxJoinBytes:    maxJoinBody,
		MaxReloadBytes:  maxReloadBody,
		mux:             http.NewServeMux(),
		pool: sync.Pool{
			New: func() any { return &act.Result{} },
		},
	}
	s.streams, s.endStreams = context.WithCancel(context.Background())
	if len(metrics) > 0 && metrics[0] != nil {
		s.metrics = metrics[0]
	} else {
		s.metrics = NewMetrics()
	}
	s.metrics.registerIndexGauges(indexes)
	s.otherDur = s.metrics.reqDuration.With("other")
	s.otherBytes = s.metrics.respBytes.With("other")
	s.route("GET /lookup", "lookup", s.handleLookup)
	s.route("POST /join", "join", s.handleJoin)
	s.route("POST /reload", "reload", s.handleReload)
	s.route("POST /polygons", "insert", s.handleInsert)
	s.route("DELETE /polygons/{id}", "remove", s.handleRemove)
	s.route("GET /stats", "stats", s.handleStats)
	s.route("GET /healthz", "healthz", s.handleHealth)
	s.route("GET /metrics", "metrics", s.metrics.Registry.ServeHTTP)
	// The replication endpoints are registered unconditionally so a
	// follower promoted at runtime can start serving them without mutating
	// the mux; they answer 503 unless the served index is a primary, and
	// are token-gated like the other state-changing endpoints.
	s.route("GET "+replica.SnapshotPath, "replication_snapshot", s.handleReplicationSnapshot)
	s.route("GET "+replica.StreamPath, "replication_stream", s.handleReplicationStream)
	s.route("POST /promote", "promote", s.handlePromote)
	return s
}

// route registers a handler under its metrics name. The wrapper only tags
// the request's statusRecorder with the route and its instrument handles
// (resolved once, here); the actual observation happens at the single exit
// point in ServeHTTP.
func (s *Server) route(pattern, name string, h http.HandlerFunc) {
	dur := s.metrics.reqDuration.With(name)
	bytes := s.metrics.respBytes.With(name)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if rec, ok := w.(*statusRecorder); ok {
			rec.route = name
			rec.dur = dur
			rec.respBytes = bytes
		}
		h(w, r)
	})
}

// Metrics returns the server's instrument set (for tests and the bench
// harness; the scrape endpoint is GET /metrics).
func (s *Server) Metrics() *Metrics { return s.metrics }

// EnableMutationLimit token-buckets the mutation endpoints at rps requests
// per second (burst max(rps, 1)); excess requests answer 429 with a
// Retry-After. Call before serving; rps <= 0 leaves the limit off.
func (s *Server) EnableMutationLimit(rps float64) {
	if rps > 0 {
		s.limiter = newTokenBucket(rps)
	}
}

// ServeHTTP implements http.Handler: the request-id + metrics + logging
// middleware around the mux. Every request gets an X-Request-ID (inbound
// ones are honored), an entry in the per-route counters/latency histograms,
// and one structured log line on completion.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(obs.HeaderRequestID)
	if id == "" {
		id = obs.NewRequestID()
	}
	w.Header().Set(obs.HeaderRequestID, id)
	r = r.WithContext(obs.WithRequestID(r.Context(), id))

	rec := &statusRecorder{ResponseWriter: w}
	s.metrics.inFlight.Add(1)
	start := time.Now()
	s.mux.ServeHTTP(rec, r)
	elapsed := time.Since(start)
	s.metrics.inFlight.Add(-1)

	route, dur, respBytes := rec.route, rec.dur, rec.respBytes
	if route == "" {
		route, dur, respBytes = "other", s.otherDur, s.otherBytes
	}
	code := rec.status()
	s.metrics.requestCounter(route, r.Method, code).Inc()
	dur.Observe(elapsed.Seconds())
	respBytes.Add(uint64(rec.bytes))

	lvl := slog.LevelInfo
	switch {
	case code >= 500:
		lvl = slog.LevelError
	case code >= 400:
		lvl = slog.LevelWarn
	case route == "healthz" || route == "metrics":
		// Probe traffic: visible with -log-format at debug, silent otherwise.
		lvl = slog.LevelDebug
	}
	s.Logger.LogAttrs(r.Context(), lvl, "http request",
		slog.String("request_id", id),
		slog.String("route", route),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", code),
		slog.Int64("bytes", rec.bytes),
		slog.Duration("latency", elapsed),
	)
}

// EnablePprof mounts net/http/pprof's handlers under /debug/pprof/ so the
// serving hot paths — lookups, streamed joins, reload builds — can be
// profiled in place (go tool pprof http://host/debug/pprof/profile). Opt-in
// via actserve -pprof: the endpoints expose heap contents and timing, so
// they stay off untrusted listeners by default. Call before the first
// request is served.
func (s *Server) EnablePprof() {
	// Method-agnostic patterns: go tool pprof POSTs to /symbol for remote
	// symbolization (net/http/pprof's own init registers these the same
	// way), so a GET-only route would 405 it.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// EnableFollower hands the server the replication client feeding its
// index, which publishes into the Swappable s serves (NewFollower's served):
// POST /promote promotes it, and /stats reports its stream position and lag
// while the served index is its follower. Call before serving.
func (s *Server) EnableFollower(f *replica.Follower) {
	s.follower = f
	s.metrics.registerFollowerGauges(f)
}

// role is an index's replication role: "follower" while it replicates a
// primary, "primary" when its log pairs with a checkpoint snapshot (actserve
// -wal with -index, a recovered index, a promoted follower), "standalone"
// otherwise.
func role(st act.Status) string {
	switch {
	case st.Follower:
		return "follower"
	case st.WAL.SnapshotPath != "":
		return "primary"
	}
	return "standalone"
}

// replicationPrimary returns the primary serving the /replication/*
// endpoints from the served index. When that index is not a primary it
// answers 503 and returns nil, telling the follower to back off and retry —
// the shape a mid-failover fleet sees while the promotion is in flight.
func (s *Server) replicationPrimary(w http.ResponseWriter, r *http.Request) *replica.Primary {
	if !s.authorize(w, r) {
		return nil
	}
	idx := s.indexes.Load()
	if role(idx.Status()) != "primary" {
		http.Error(w, "server is not a replication primary", http.StatusServiceUnavailable)
		return nil
	}
	return replica.NewPrimary(idx)
}

func (s *Server) handleReplicationSnapshot(w http.ResponseWriter, r *http.Request) {
	if p := s.replicationPrimary(w, r); p != nil {
		p.ServeSnapshot(w, r)
	}
}

func (s *Server) handleReplicationStream(w http.ResponseWriter, r *http.Request) {
	if p := s.replicationPrimary(w, r); p != nil {
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		defer context.AfterFunc(s.streams, cancel)()
		p.ServeStream(w, r.WithContext(ctx))
	}
}

// EndStreams ends every open /replication/stream response, and any opened
// later, while other requests run to completion. A stream stays open for as
// long as its follower stays connected, so http.Server.Shutdown, which
// waits for every open response, needs it as a RegisterOnShutdown hook.
func (s *Server) EndStreams() { s.endStreams() }

// promoteResponse reports a successful POST /promote.
type promoteResponse struct {
	Role string `json:"role"`
	// Epoch is the fencing epoch the promotion established; Seq the
	// sequence number the new primary's history starts from.
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
}

// handlePromote turns a follower server into the next primary (see
// replica.Follower.Promote): the stream is paused and drained, and the index
// converted to a mutable primary under a bumped, fenced epoch. The served
// index then reports the primary role itself, so the /replication/*
// endpoints start serving and the mutating endpoints open up. Refused with
// 409 when the server is not a follower, when the follower has not applied
// everything the old primary acknowledged (promoting would lose writes; the
// follower streams on), or when it was already promoted.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if !s.authorize(w, r) {
		return
	}
	if s.follower == nil {
		http.Error(w, "server is not a replication follower", http.StatusConflict)
		return
	}
	promo, err := s.follower.Promote(r.Context())
	if err != nil {
		s.Logger.LogAttrs(r.Context(), slog.LevelWarn, "promotion refused",
			slog.String("request_id", obs.RequestID(r.Context())),
			slog.String("error", err.Error()))
		http.Error(w, "promotion refused: "+err.Error(), http.StatusConflict)
		return
	}
	s.Logger.LogAttrs(r.Context(), slog.LevelInfo, "promoted to primary",
		slog.String("request_id", obs.RequestID(r.Context())),
		slog.String("role", "primary"),
		slog.Uint64("epoch", promo.Epoch),
		slog.Uint64("seq", promo.Seq))
	writeJSON(w, promoteResponse{Role: "primary", Epoch: promo.Epoch, Seq: promo.Seq})
}

// ParseGridKind maps the wire/flag spelling of a grid to its kind. The
// empty string selects the default planar grid.
func ParseGridKind(name string) (act.GridKind, error) {
	switch name {
	case "", "planar":
		return act.PlanarGrid, nil
	case "cubeface":
		return act.CubeFaceGrid, nil
	default:
		return 0, fmt.Errorf("unknown grid %q (want planar or cubeface)", name)
	}
}

// ParseFsyncPolicy maps the -fsync flag spelling to the WAL policy.
func ParseFsyncPolicy(name string) (act.FsyncPolicy, error) {
	switch name {
	case "", "always":
		return act.SyncAlways, nil
	case "interval":
		return act.SyncInterval, nil
	case "off":
		return act.SyncOff, nil
	default:
		return 0, fmt.Errorf("unknown fsync policy %q (want always, interval, or off)", name)
	}
}

// BuildFromGeoJSON reads a polygon file and builds a fresh index; extra
// options (e.g. a WAL attachment) are applied on top of the build shape.
func BuildFromGeoJSON(path string, precision float64, gk act.GridKind, extra ...act.Option) (*act.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	polys, err := geojson.ReadPolygons(f)
	if err != nil {
		return nil, err
	}
	opts := append([]act.Option{act.WithPrecision(precision), act.WithGrid(gk)}, extra...)
	return act.New(polys, opts...)
}

// lookupResponse is the JSON shape of a lookup.
type lookupResponse struct {
	Lat        float64  `json:"lat"`
	Lng        float64  `json:"lng"`
	Matched    bool     `json:"matched"`
	True       []uint32 `json:"true,omitempty"`
	Candidates []uint32 `json:"candidates,omitempty"`
	// Epsilon echoes the precision bound candidates are subject to.
	Epsilon float64 `json:"epsilonMeters"`
	Exact   bool    `json:"exact"`
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	lat, err1 := strconv.ParseFloat(q.Get("lat"), 64)
	lng, err2 := strconv.ParseFloat(q.Get("lng"), 64)
	if err1 != nil || err2 != nil {
		http.Error(w, `need numeric "lat" and "lng" query parameters`, http.StatusBadRequest)
		return
	}
	ll := act.LatLng{Lat: lat, Lng: lng}
	if !ll.IsValid() {
		http.Error(w, "coordinates out of range", http.StatusBadRequest)
		return
	}
	exact := q.Get("exact") == "1" || q.Get("exact") == "true"

	mode := act.Approximate
	if exact {
		mode = act.Exact
	}
	idx := s.indexes.Load()
	res := s.pool.Get().(*act.Result)
	defer s.pool.Put(res)
	matched, err := idx.Lookup(ll, mode, res)
	if err != nil {
		http.Error(w, "index has no geometry store, cannot serve exact lookups", http.StatusUnprocessableEntity)
		return
	}
	resp := lookupResponse{
		Lat: lat, Lng: lng, Matched: matched,
		True: res.True, Candidates: res.Candidates,
		Epsilon: idx.PrecisionMeters(), Exact: exact,
	}
	writeJSON(w, resp)
}

// joinRequest is the JSON body of POST /join: a point batch to join
// against the indexed polygon set.
type joinRequest struct {
	Points []struct {
		Lat float64 `json:"lat"`
		Lng float64 `json:"lng"`
	} `json:"points"`
	// Exact refines candidates with exact geometry before emitting. The
	// ?exact=1 query parameter sets the same switch, so streaming clients
	// can pick the join semantics without touching the body.
	Exact bool `json:"exact"`
	// Threads bounds the join workers. Omitted (or 0) uses every core —
	// the engine saturates the machine by default and trims idle workers
	// on small batches. Other values are clamped to [1, GOMAXPROCS] so a
	// single request cannot over-subscribe the process.
	Threads int `json:"threads"`
}

// maxJoinPoints bounds one request's batch so a single POST cannot pin the
// process; stream larger joins as several requests.
const maxJoinPoints = 1 << 22

// maxJoinBody bounds the request body read off the wire: comfortably above
// maxJoinPoints of JSON-encoded coordinates, far below anything that could
// exhaust memory before the point-count check runs.
const maxJoinBody = 256 << 20

// joinPair is one NDJSON line of the /join response stream.
type joinPair struct {
	Point   int    `json:"point"`
	Polygon uint32 `json:"polygon"`
	Class   string `json:"class"`
}

// joinTrailer is the final NDJSON line: aggregate statistics.
type joinTrailer struct {
	Stats struct {
		Points         int     `json:"points"`
		Pairs          int64   `json:"pairs"`
		TrueHits       int64   `json:"trueHits"`
		CandidateHits  int64   `json:"candidateHits"`
		Misses         int64   `json:"misses"`
		ElapsedSeconds float64 `json:"elapsedSeconds"`
		ThroughputMPts float64 `json:"throughputMPts"`
	} `json:"stats"`
}

// handleJoin streams the join of a posted point batch as NDJSON: one
// {"point","polygon","class"} object per pair, then a {"stats"} trailer.
// Pairs are emitted as the engine produces them, so the response starts
// before the join finishes. With ?exact=1 (or "exact": true in the body)
// candidates are refined against the geometry store before emission, so
// every streamed pair is truly inside — a "candidate" class then records
// that the pair needed refinement. The join runs under the request context:
// when the client disconnects (or a write fails), the engine's workers
// abort instead of joining the rest of the batch into the void.
func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.MaxJoinBytes)).Decode(&req); err != nil {
		if tooLarge(w, err) {
			return
		}
		http.Error(w, "bad JSON body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if q := r.URL.Query().Get("exact"); q == "1" || q == "true" {
		req.Exact = true
	}
	if len(req.Points) == 0 {
		http.Error(w, `need a non-empty "points" array`, http.StatusBadRequest)
		return
	}
	if len(req.Points) > maxJoinPoints {
		http.Error(w, fmt.Sprintf("batch exceeds %d points", maxJoinPoints), http.StatusBadRequest)
		return
	}
	pts := make([]act.LatLng, len(req.Points))
	for i, p := range req.Points {
		ll := act.LatLng{Lat: p.Lat, Lng: p.Lng}
		if !ll.IsValid() {
			http.Error(w, fmt.Sprintf("point %d out of range", i), http.StatusBadRequest)
			return
		}
		pts[i] = ll
	}
	mode := act.Approximate
	if req.Exact {
		mode = act.Exact
	}
	idx := s.indexes.Load()
	threads := runtime.GOMAXPROCS(0)
	if req.Threads != 0 {
		threads = min(max(req.Threads, 1), threads)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	// JoinStreamContext serializes fn, so the encoder needs no extra
	// locking. A failed write cancels the context, which aborts the join
	// itself — as does the request context when the client disconnects.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	var writeErr error
	stats, err := idx.JoinStreamContext(ctx, pts, mode, threads, func(p act.Pair) {
		if writeErr != nil {
			return
		}
		if writeErr = enc.Encode(joinPair{Point: p.Point, Polygon: p.Polygon, Class: p.Class.String()}); writeErr != nil {
			cancel()
		}
	})
	if errors.Is(err, act.ErrNoGeometry) {
		// Refused before probing: no pair has been written.
		http.Error(w, "index has no geometry store, cannot serve exact joins", http.StatusUnprocessableEntity)
		return
	}
	if err != nil || writeErr != nil {
		return
	}
	s.metrics.joinPoints.Add(uint64(stats.Points))
	s.metrics.joinPairs.Add(uint64(stats.Pairs()))
	s.metrics.joinThreads.Observe(float64(stats.Threads))
	var trailer joinTrailer
	trailer.Stats.Points = stats.Points
	trailer.Stats.Pairs = stats.Pairs()
	trailer.Stats.TrueHits = stats.TrueHits
	trailer.Stats.CandidateHits = stats.CandidateHits
	trailer.Stats.Misses = stats.Misses
	trailer.Stats.ElapsedSeconds = stats.Elapsed.Seconds()
	trailer.Stats.ThroughputMPts = stats.ThroughputMPts
	_ = enc.Encode(trailer)
	_ = bw.Flush()
}

// tooLarge answers a body-read error that was really the MaxBytesReader
// tripping with 413 and the limit that was exceeded, and reports whether it
// did so. Every bounded-body endpoint routes its read errors through here,
// so an oversized body is consistently "too large", never "bad JSON".
func tooLarge(w http.ResponseWriter, err error) bool {
	var tooBig *http.MaxBytesError
	if !errors.As(err, &tooBig) {
		return false
	}
	http.Error(w, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
	return true
}

// authorize checks the bearer token gating the state-changing and
// replication endpoints, writing the failure response itself: 401 when no
// credentials were presented at all, 403 when credentials were presented
// but are wrong or malformed. An empty configured token admits everyone
// (trusted-listener mode).
func (s *Server) authorize(w http.ResponseWriter, r *http.Request) bool {
	if s.ReloadToken == "" {
		return true
	}
	got := r.Header.Get("Authorization")
	if got == "" {
		w.Header().Set("WWW-Authenticate", "Bearer")
		http.Error(w, "unauthorized", http.StatusUnauthorized)
		return false
	}
	if subtle.ConstantTimeCompare([]byte(got), []byte("Bearer "+s.ReloadToken)) != 1 {
		http.Error(w, "forbidden", http.StatusForbidden)
		return false
	}
	return true
}

// maxPolygonBody is the default bound on a POST /polygons GeoJSON body
// (Server.MaxPolygonBytes overrides it per instance).
const maxPolygonBody = 64 << 20

// insertResponse reports the polygons absorbed by POST /polygons.
type insertResponse struct {
	// IDs are the assigned polygon ids, in input order (a MultiPolygon
	// contributes one id per member).
	IDs []uint32 `json:"ids"`
	// DeltaPolygons and Tombstones mirror /stats after the insert.
	DeltaPolygons int `json:"deltaPolygons"`
	Tombstones    int `json:"tombstones"`
	// Epoch is the index's mutation generation after the insert.
	Epoch uint64 `json:"epoch"`
}

// handleInsert adds the polygons of a GeoJSON body (FeatureCollection,
// Feature, or bare Polygon/MultiPolygon geometry) to the live index. The
// inserted polygons are served from the delta layer as soon as the
// response is written; a background compaction folds them into the base
// trie when the delta crosses the threshold. Inserts land on the index
// currently served: a concurrent /reload that swaps in a fresh index
// discards mutations exactly like it discards the rest of the old index.
//
// An index that refuses writes by role — file-loaded or a follower —
// answers 409 (see mutationError).
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if !s.authorize(w, r) {
		return
	}
	if !s.allowMutation(w, "insert") {
		return
	}
	polys, err := geojson.ReadPolygons(http.MaxBytesReader(w, r.Body, s.MaxPolygonBytes))
	if err != nil {
		if tooLarge(w, err) {
			return
		}
		http.Error(w, "bad GeoJSON body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(polys) == 0 {
		http.Error(w, "body contains no polygons", http.StatusBadRequest)
		return
	}
	idx := s.indexes.Load()
	ids := make([]uint32, 0, len(polys))
	for i, p := range polys {
		id, err := idx.Insert(r.Context(), p)
		if err != nil {
			// Earlier polygons of the batch are already live; report how
			// far we got so the client can reconcile. A refusal by role
			// can only come at the first polygon, and its body says why.
			mutationError(w, err, fmt.Sprintf("polygon %d: %v (inserted ids %v)", i, err, ids))
			return
		}
		ids = append(ids, id)
	}
	st := idx.Status()
	writeJSON(w, insertResponse{
		IDs:           ids,
		DeltaPolygons: st.DeltaPolygons,
		Tombstones:    st.Tombstones,
		Epoch:         st.Generation,
	})
}

// allowMutation applies the optional mutation rate limit: with a limiter
// enabled and no token available the request is answered 429 with a
// Retry-After estimating when one accrues, and the rejection is counted in
// act_http_rate_limited_total. Runs after authorize, so unauthenticated
// traffic cannot drain the bucket.
func (s *Server) allowMutation(w http.ResponseWriter, route string) bool {
	if s.limiter == nil {
		return true
	}
	ok, wait := s.limiter.take(time.Now())
	if ok {
		return true
	}
	s.metrics.rateLimited.With(route).Inc()
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(wait.Seconds()))))
	http.Error(w, "mutation rate limit exceeded", http.StatusTooManyRequests)
	return false
}

// mutationError answers a mutation the index refused. A role that takes no
// client writes gets 409 and a pointer elsewhere: a replication follower to
// the primary, a file-loaded index to /reload. An unknown id gets 404; a
// tripped (fail-stopped) WAL or a fenced primary means the server has
// degraded to read-only — 503, retry against the new primary; anything else
// is a problem with the request itself (422). The last three carry msg.
func mutationError(w http.ResponseWriter, err error, msg string) {
	switch {
	case errors.Is(err, act.ErrFollower):
		http.Error(w, "index is a replication follower; send writes to the primary", http.StatusConflict)
	case errors.Is(err, act.ErrImmutable):
		http.Error(w, "index was loaded from a file and cannot be mutated; use /reload", http.StatusConflict)
	case errors.Is(err, act.ErrUnknownPolygon):
		http.Error(w, msg, http.StatusNotFound)
	case errors.Is(err, act.ErrWALFailed), errors.Is(err, act.ErrFenced):
		http.Error(w, msg, http.StatusServiceUnavailable)
	default:
		http.Error(w, msg, http.StatusUnprocessableEntity)
	}
}

// removeResponse reports a DELETE /polygons/{id}.
type removeResponse struct {
	Removed    uint32 `json:"removed"`
	Tombstones int    `json:"tombstones"`
	Epoch      uint64 `json:"epoch"`
}

// handleRemove removes one polygon id from the live index: lookups and
// joins that start after the response stop reporting it, and the next
// compaction rebuilds the base without it. Unknown or already-removed ids
// get 404; an index that refuses writes by role gets 409.
func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	if !s.authorize(w, r) {
		return
	}
	if !s.allowMutation(w, "remove") {
		return
	}
	id64, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		http.Error(w, "bad polygon id", http.StatusBadRequest)
		return
	}
	idx := s.indexes.Load()
	if err := idx.Remove(r.Context(), uint32(id64)); err != nil {
		mutationError(w, err, err.Error())
		return
	}
	st := idx.Status()
	writeJSON(w, removeResponse{
		Removed:    uint32(id64),
		Tombstones: st.Tombstones,
		Epoch:      st.Generation,
	})
}

// reloadRequest is the JSON body of POST /reload: the source of the
// replacement index — either a GeoJSON polygon file to build from, or a
// serialized index file (Index.WriteTo) to deserialize — plus optional
// build-parameter overrides.
type reloadRequest struct {
	// Polygons is a server-local GeoJSON file path to build from.
	Polygons string `json:"polygons"`
	// Index is a server-local serialized-index file path to load. Exactly
	// one of Polygons and Index must be set.
	Index string `json:"index"`
	// Precision overrides the server's build precision (meters). Ignored
	// when Index is set.
	Precision float64 `json:"precision"`
	// Grid overrides the server's grid: "planar" or "cubeface". Ignored
	// when Index is set.
	Grid string `json:"grid"`
}

// reloadResponse reports the swapped-in index.
type reloadResponse struct {
	Generation  uint64  `json:"generation"`
	NumPolygons int     `json:"numPolygons"`
	Cells       int     `json:"indexedCells"`
	Epsilon     float64 `json:"epsilonMeters"`
	Grid        string  `json:"grid"`
}

// maxReloadBody bounds a POST /reload body: two file paths and two
// overrides fit in a fraction of this.
const maxReloadBody = 1 << 20

// handleReload builds or deserializes a replacement index and swaps it in
// atomically. The rebuild happens on this handler's goroutine while every
// other request keeps serving the current index; in-flight requests that
// already loaded the old index finish on it. Only one reload runs at a
// time — a concurrent attempt gets 409 — and none runs over a follower or
// a logged index (409 too).
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if !s.authorize(w, r) {
		return
	}
	var req reloadRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.MaxReloadBytes)).Decode(&req); err != nil {
		if tooLarge(w, err) {
			return
		}
		http.Error(w, "bad JSON body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if st := s.indexes.Load().Status(); st.Follower || st.WAL.Enabled {
		// A follower's polygon set is its primary's to change. A logged
		// index would be swapped for one without its log: later writes
		// acknowledged without an entry, and followers left tailing the old
		// index's snapshot and log.
		http.Error(w, "reload refused: the served index follows a primary or writes a log; mutate it with POST /polygons and DELETE /polygons/{id} on the primary", http.StatusConflict)
		return
	}
	if (req.Polygons == "") == (req.Index == "") {
		http.Error(w, `need exactly one of "polygons" and "index"`, http.StatusBadRequest)
		return
	}
	gk := s.defaults.Grid
	if req.Grid != "" {
		var err error
		if gk, err = ParseGridKind(req.Grid); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	if req.Precision < 0 {
		http.Error(w, fmt.Sprintf("negative precision %v", req.Precision), http.StatusBadRequest)
		return
	}
	precision := s.defaults.Precision
	if req.Precision > 0 {
		precision = req.Precision
	}

	if !s.reloadMu.TryLock() {
		http.Error(w, "reload already in progress", http.StatusConflict)
		return
	}
	defer s.reloadMu.Unlock()

	var (
		idx *act.Index
		err error
	)
	if req.Index != "" {
		idx, err = act.OpenIndex(req.Index)
	} else {
		idx, err = BuildFromGeoJSON(req.Polygons, precision, gk)
	}
	if err != nil {
		http.Error(w, "reload failed: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	s.indexes.Swap(idx)
	st := idx.Status().Build
	writeJSON(w, reloadResponse{
		Generation:  s.indexes.Generation(),
		NumPolygons: st.NumPolygons,
		Cells:       st.IndexedCells,
		Epsilon:     idx.PrecisionMeters(),
		Grid:        idx.GridKind().String(),
	})
}

// statsResponse is the JSON shape of /stats.
type statsResponse struct {
	NumPolygons             int     `json:"numPolygons"`
	IndexedCells            int     `json:"indexedCells"`
	TrieBytes               int64   `json:"trieBytes"`
	TableBytes              int64   `json:"tableBytes"`
	TrieNodes               int     `json:"trieNodes"`
	PrecisionMeters         float64 `json:"precisionMeters"`
	AchievedPrecisionMeters float64 `json:"achievedPrecisionMeters"`
	Grid                    string  `json:"grid"`
	// HasGeometry reports whether the live index can refine candidates
	// (serve ?exact=1 lookups and exact joins).
	HasGeometry bool `json:"hasGeometry"`
	// Generation counts index swaps: 1 is the index the server started
	// with, each successful /reload increments it.
	Generation uint64 `json:"generation"`
	// Mutable reports whether POST /polygons and DELETE /polygons/{id}
	// can mutate the live index (false for file-loaded indexes).
	Mutable bool `json:"mutable"`
	// Mapped reports whether the live index serves its trie zero-copy from
	// a memory-mapped file (an -index or /reload of a current-format file)
	// rather than heap memory.
	Mapped bool `json:"mapped"`
	// LivePolygons is the current live polygon count (base + delta -
	// tombstones); NumPolygons reports the base build's count.
	LivePolygons int `json:"livePolygons"`
	// DeltaPolygons and Tombstones describe the pending mutation layer
	// (inserts and removals since the base trie was built);
	// Compactions counts background delta-into-base folds completed on
	// the live index.
	DeltaPolygons int    `json:"deltaPolygons"`
	Tombstones    int    `json:"tombstones"`
	Compactions   uint64 `json:"compactions"`
	// WALEnabled reports whether the live index has a write-ahead log; the
	// fields after it are zero/-1 when it does not.
	WALEnabled bool `json:"walEnabled"`
	// WALSeq is the sequence number of the last logged mutation; WALBytes
	// the current log file length.
	WALSeq   uint64 `json:"walSeq"`
	WALBytes int64  `json:"walBytes"`
	// LastFsyncMillis is the Unix-milli wall time of the log's last
	// successful fsync, or -1 if it has never fsynced (e.g. -fsync off).
	LastFsyncMillis int64 `json:"lastFsyncMillis"`
	// RecoveredRecords is the number of log records replayed when the live
	// index came up — 0 after a clean shutdown or a fresh start.
	RecoveredRecords int `json:"recoveredRecords"`
	// ReadOnly reports that the server is refusing mutations it would
	// normally accept: the WAL tripped fail-stop (WALFailed carries the
	// cause) or the index was fenced by a newer epoch (FencedEpoch).
	ReadOnly bool `json:"readOnly"`
	// WALFailed is the WAL's sticky fail-stop cause, "" while healthy.
	WALFailed string `json:"walFailed,omitempty"`
	// FencedEpoch is the epoch this index was fenced at (a newer primary
	// was promoted); 0 means not fenced.
	FencedEpoch uint64 `json:"fencedEpoch,omitempty"`
	// WALEpoch is the replication fencing epoch in the WAL header: 0
	// until a promotion ever happened in this lineage.
	WALEpoch uint64 `json:"walEpoch"`
	// Role is derived from the served index on each request: "follower"
	// while it replicates a primary (-replicate-from, until POST /promote),
	// "primary" when its log pairs with a checkpoint snapshot (the
	// /replication/* endpoints serve it), else "standalone".
	Role string `json:"role"`
	// Replication is the follower's stream position (follower role only).
	Replication *replicationStats `json:"replication,omitempty"`
}

// replicationStats is the /stats view of a follower's stream position: its
// replica.Status and the lag (0 = caught up).
type replicationStats struct {
	replica.Status
	Lag uint64 `json:"lag"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	// Load the index and its generation as one atomic pair, so a racing
	// /reload cannot make /stats report generation g+1 with g's numbers.
	idx, gen := s.indexes.LoadGeneration()
	st := idx.Status()
	lastFsync := int64(-1)
	if !st.WAL.LastSync.IsZero() {
		lastFsync = st.WAL.LastSync.UnixMilli()
	}
	r := role(st)
	var repl *replicationStats
	if r == "follower" && s.follower != nil {
		rs := s.follower.Status()
		repl = &replicationStats{Status: rs, Lag: rs.Lag()}
	}
	writeJSON(w, statsResponse{
		NumPolygons:             st.Build.NumPolygons,
		IndexedCells:            st.Build.IndexedCells,
		TrieBytes:               st.Build.TrieBytes,
		TableBytes:              st.Build.TableBytes,
		TrieNodes:               st.Build.TrieNodes,
		PrecisionMeters:         idx.PrecisionMeters(),
		AchievedPrecisionMeters: st.Build.AchievedPrecisionMeters,
		Grid:                    idx.GridKind().String(),
		HasGeometry:             st.HasGeometry,
		Generation:              gen,
		Mutable:                 st.Mutable,
		Mapped:                  st.Mapped,
		LivePolygons:            st.Live,
		DeltaPolygons:           st.DeltaPolygons,
		Tombstones:              st.Tombstones,
		Compactions:             st.Compactions,
		WALEnabled:              st.WAL.Enabled,
		WALSeq:                  st.WAL.Seq,
		WALBytes:                st.WAL.Bytes,
		LastFsyncMillis:         lastFsync,
		RecoveredRecords:        st.WAL.RecoveredRecords,
		ReadOnly:                st.WAL.Failed != "" || st.FencedAt != 0,
		WALFailed:               st.WAL.Failed,
		FencedEpoch:             st.FencedAt,
		WALEpoch:                st.WAL.Epoch,
		Role:                    r,
		Replication:             repl,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok"))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
