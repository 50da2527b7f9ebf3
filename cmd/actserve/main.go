// Command actserve exposes an ACT index as an HTTP geofencing service —
// the deployment shape of the paper's motivating use case (map incoming
// ride requests to zones in real time).
//
//	actgen -dataset neighborhoods -o n.geojson
//	actserve -polygons n.geojson -precision 4 -addr :8080
//
//	GET    /lookup?lat=40.758&lng=-73.9855          approximate lookup
//	GET    /lookup?lat=40.758&lng=-73.9855&exact=1  exact (refined) lookup
//	POST   /join                                    batch join, streamed as NDJSON
//	POST   /reload                                  swap in a new polygon set
//	POST   /polygons                                insert polygons (GeoJSON body)
//	DELETE /polygons/{id}                           remove one polygon
//	GET    /stats                                   index statistics
//	GET    /healthz                                 liveness
//	GET    /debug/pprof/                            profiling (with -pprof)
//
// POST /join accepts {"points":[{"lat":..,"lng":..},...],"exact":bool,
// "threads":n} and streams one {"point","polygon","class"} object per join
// pair followed by a {"stats":{...}} trailer. The join runs under the
// request context, so a disconnected client aborts it promptly.
//
// POST /reload accepts {"polygons":"path"} or {"index":"path"} (with
// optional "precision" and "grid" overrides), builds or deserializes the
// replacement in the background, and swaps it in atomically: lookups and
// joins keep serving the old index until the swap, with zero downtime. It
// reads server-local files and replaces the live index, so protect it with
// -reload-token (Authorization: Bearer) unless the listener is trusted. A
// server with -wal or -replicate-from refuses it (409): the replacement
// would carry no log, and a follower's polygon set is its primary's.
//
// Index files — both -index at startup and {"index":...} reloads — are
// served zero-copy: current-format files are memory-mapped and the trie is
// read in place from the page cache, so swinging a multi-hundred-MB index
// in costs a header read plus validation rather than an arena-sized copy.
// The previous mapping is released automatically once the last in-flight
// request on the old index retires. /stats reports "mapped": true when the
// live index is served this way.
//
// POST /polygons (a GeoJSON FeatureCollection, Feature, or geometry body)
// and DELETE /polygons/{id} mutate the live index in place: inserts are
// covered and served from a delta layer immediately, removes drop the id
// from the live set, and a background compaction folds the delta into a
// fresh base trie without blocking a single lookup — polygon churn without
// the full rebuild of /reload. Both endpoints honour -reload-token. /stats
// reports the mutation layer (livePolygons, deltaPolygons, tombstones,
// compactions). Indexes started from -index files are immutable (409);
// start from -polygons (or -wal) to serve mutations.
//
// -wal makes the mutations durable: every accepted insert and remove is
// appended to the write-ahead log before the response is written (fsync
// cadence per -fsync), and on restart the log tail is replayed so the
// served polygon set picks up exactly where the crashed process left off.
// With both -wal and -index, the index file doubles as the checkpoint
// snapshot: each compaction atomically rewrites it and truncates the log,
// and startup resumes from snapshot + log tail (act.Recover) when the file
// exists — falling back to a fresh -polygons build (with log replay on
// top) when it does not. /stats reports the log position (walSeq,
// walBytes, lastFsyncMillis, recoveredRecords).
//
// With both -wal and -index set (or once promoted), the served index is a
// replication primary, and the server with it: GET /replication/snapshot
// serves the checkpoint snapshot and GET /replication/stream serves the
// log as a resumable record stream. A second actserve started with
// -replicate-from http://primary:8080 serves a read-only replica: it
// bootstraps from the snapshot, applies streamed records as they arrive
// (lookups and joins never block on replication), reconnects with backoff
// across stream loss, and re-bootstraps when a primary checkpoint outruns
// it, swapping each bootstrapped index into the served act.Swappable. On a
// follower the mutating endpoints answer 409 pointing at the primary, and
// /stats reports the role plus the replication position and lag.
//
// Failover: when the primary dies, POST /promote on a follower turns it into
// the next primary — the stream is paused and drained as far as the old
// primary still delivers, the follower's state becomes the new checkpoint
// snapshot, and a fresh WAL continuing from the follower's sequence is
// opened under a bumped fencing epoch. Promotion is refused (409), and the
// stream resumes, if the follower has not applied everything the old primary
// acknowledged. A resurrected stale primary is fenced by the new epoch the
// moment a replication request reaches it: its /replication/* endpoints
// answer 412 and its mutations 503. Degradation is fail-stop throughout: a
// WAL write or fsync error makes the index reject further mutations (503,
// cause in /stats walFailed) rather than acknowledge writes it cannot make
// durable; reads keep serving. The replication endpoints and /promote honour
// -reload-token; followers present -replicate-token (default: the
// -reload-token value) to the primary.
//
// The index is held in an act.Swappable; handlers load it once per
// request, so every request sees one consistent index. On SIGINT/SIGTERM
// the server stops accepting connections, ends its replication streams and
// drains in-flight requests (including streaming NDJSON joins) before
// exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/replica"
	"github.com/actindex/act/internal/server"
)

func main() {
	polyFile := flag.String("polygons", "", "GeoJSON file with the polygon set")
	indexFile := flag.String("index", "", "serialized index file (alternative to -polygons; with -wal, the checkpoint snapshot path)")
	precision := flag.Float64("precision", 4, "precision bound ε in meters")
	gridFlag := flag.String("grid", "planar", "hierarchical grid: planar | cubeface")
	addr := flag.String("addr", ":8080", "listen address")
	drain := flag.Duration("drain", 30*time.Second, "max time to drain in-flight requests on shutdown")
	reloadToken := flag.String("reload-token", "", "bearer token required by POST /reload (empty: no auth; only safe on trusted listeners)")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (profiling; only safe on trusted listeners)")
	walFile := flag.String("wal", "", "write-ahead log file: mutations are logged before acknowledgement and replayed on restart")
	fsyncFlag := flag.String("fsync", "always", "WAL fsync policy: always | interval | off")
	fsyncEvery := flag.Duration("fsync-interval", 100*time.Millisecond, "flush cadence for -fsync interval")
	replicateFrom := flag.String("replicate-from", "", "primary base URL to follow (e.g. http://primary:8080): serve a read-only replica fed by its WAL stream")
	replicaDir := flag.String("replica-dir", "", "directory for downloaded bootstrap snapshots in -replicate-from mode (default: a temp dir)")
	replicateToken := flag.String("replicate-token", "", "bearer token presented to the primary's replication endpoints (default: the -reload-token value)")
	logFormat := flag.String("log-format", "text", "structured log encoding on stderr: text | json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
	mutationRPS := flag.Float64("mutation-rps", 0, "token-bucket rate limit on the mutation endpoints, requests/second (0: no limit); excess requests get 429 + Retry-After")
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "actserve: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	slog.SetDefault(logger)

	if *replicateToken == "" {
		*replicateToken = *reloadToken
	}
	if *replicateFrom != "" {
		if *polyFile != "" || *indexFile != "" || *walFile != "" {
			fmt.Fprintln(os.Stderr, "actserve: -replicate-from takes its data from the primary; -polygons, -index, and -wal do not apply")
			flag.Usage()
			os.Exit(2)
		}
		runFollower(logger, *replicateFrom, *replicaDir, *addr, *reloadToken, *replicateToken, *pprofFlag, *mutationRPS, *drain)
		return
	}

	// Without a WAL, exactly one source; with one, -polygons and -index
	// compose (build source and checkpoint snapshot), but at least one of
	// them must say where the polygons come from.
	if *walFile == "" && (*polyFile == "") == (*indexFile == "") {
		fmt.Fprintln(os.Stderr, "actserve: exactly one of -polygons and -index is required")
		flag.Usage()
		os.Exit(2)
	}
	if *walFile != "" && *polyFile == "" && *indexFile == "" {
		fmt.Fprintln(os.Stderr, "actserve: -wal needs -polygons (build source) and/or -index (snapshot)")
		flag.Usage()
		os.Exit(2)
	}
	gk, err := server.ParseGridKind(*gridFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "actserve: %v\n", err)
		os.Exit(2)
	}
	fsync, err := server.ParseFsyncPolicy(*fsyncFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "actserve: %v\n", err)
		os.Exit(2)
	}

	// The instrument set exists before the index so the WAL's append/fsync
	// hooks are live from the very first replayed record; the server created
	// below serves the same registry at GET /metrics.
	metrics := server.NewMetrics()
	observer := metrics.ActObserver(logger)

	var (
		idx       *act.Index
		recovered bool
	)
	switch {
	case *walFile != "":
		if *indexFile != "" {
			if _, statErr := os.Stat(*indexFile); statErr == nil {
				// A checkpoint snapshot exists: resume from it plus the log
				// tail. The snapshot, not -polygons, is authoritative — it
				// already folds in every checkpointed mutation.
				idx, err = act.Recover(*indexFile, *walFile,
					act.WithWAL(act.WALConfig{Policy: fsync, Interval: *fsyncEvery}),
					act.WithObserver(observer))
				recovered = true
				break
			}
		}
		if *polyFile == "" {
			fatal(logger, "snapshot missing and no -polygons to build from", slog.String("snapshot", *indexFile))
		}
		idx, err = server.BuildFromGeoJSON(*polyFile, *precision, gk,
			act.WithWAL(act.WALConfig{
				Path:         *walFile,
				SnapshotPath: *indexFile,
				Policy:       fsync,
				Interval:     *fsyncEvery,
			}),
			act.WithObserver(observer))
	case *indexFile != "":
		idx, err = act.OpenIndex(*indexFile)
	default:
		idx, err = server.BuildFromGeoJSON(*polyFile, *precision, gk, act.WithObserver(observer))
	}
	if err != nil {
		fatal(logger, "startup failed", slog.String("error", err.Error()))
	}
	st := idx.Status()
	logger.Info("serving",
		slog.Int("polygons", st.Build.NumPolygons),
		slog.Int("cells", st.Build.IndexedCells),
		slog.Float64("mb", float64(st.Build.TotalBytes())/1e6),
		slog.Float64("epsilon_meters", idx.PrecisionMeters()),
		slog.String("addr", *addr),
	)
	if ws := st.WAL; ws.Enabled {
		logger.Info("wal attached",
			slog.String("path", *walFile),
			slog.String("fsync", fsync.String()),
			slog.Uint64("seq", ws.Seq),
			slog.Uint64("epoch", ws.Epoch),
			slog.Int("replayed_records", ws.RecoveredRecords),
		)
		if ws.SnapshotPath != "" {
			// The durability pair doubles as the replication feed: the
			// server serves /replication/* from the index it holds, and
			// followers bootstrap from the snapshot and tail the log.
			logger.Info("replication primary enabled",
				slog.String("role", "primary"),
				slog.String("snapshot", ws.SnapshotPath),
				slog.String("wal", *walFile),
			)
		}
	}

	// Reload defaults follow what is actually being served: for -index,
	// the loaded index's own precision and grid (the -precision/-grid
	// flags only parameterize builds), so a plain {"polygons":...} reload
	// cannot silently change the service's precision guarantee.
	defaults := server.BuildDefaults{Precision: *precision, Grid: gk}
	if recovered || (*walFile == "" && *indexFile != "") {
		defaults = server.BuildDefaults{Precision: idx.PrecisionMeters(), Grid: idx.GridKind()}
	}
	indexes := act.NewSwappable(idx)
	handler := server.NewServer(indexes, defaults, metrics)
	handler.Logger = logger
	handler.ReloadToken = *reloadToken
	handler.EnableMutationLimit(*mutationRPS)
	if *mutationRPS > 0 {
		logger.Info("mutation rate limit enabled", slog.Float64("rps", *mutationRPS))
	}
	if *pprofFlag {
		handler.EnablePprof()
		logger.Info("pprof enabled", slog.String("prefix", "/debug/pprof/"))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Closing the startup index lets an attached WAL flush its tail, so a
	// reopened log sees a clean shutdown (zero records to replay).
	serve(ctx, stop, logger, *addr, handler, *drain, idx.Close)
}

// serve listens on addr until ctx is done (SIGINT/SIGTERM; stop then
// restores the default signal behaviour, so a second signal kills), stops
// accepting connections, ends the replication streams, drains in-flight
// requests for at most drain, and closes the index.
func serve(ctx context.Context, stop context.CancelFunc, logger *slog.Logger, addr string, handler *server.Server, drain time.Duration, closeIndex func() error) {
	srv := &http.Server{Addr: addr, Handler: handler}
	srv.RegisterOnShutdown(handler.EndStreams)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		fatal(logger, "serve failed", slog.String("error", err.Error()))
	case <-ctx.Done():
	}
	stop()
	logger.Info("draining", slog.Duration("max", drain))
	shCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		logger.Error("shutdown failed", slog.String("error", err.Error()))
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listener error", slog.String("error", err.Error()))
	}
	if err := closeIndex(); err != nil {
		logger.Error("closing index failed", slog.String("error", err.Error()))
	}
	logger.Info("drained, exiting")
}

// buildLogger maps the -log-format and -log-level flags to a slog logger on
// stderr.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "", "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
}

// fatal logs the error and exits non-zero — the slog replacement for
// log.Fatalf.
func fatal(logger *slog.Logger, msg string, attrs ...any) {
	logger.Error(msg, attrs...)
	os.Exit(1)
}

// runFollower serves a read-only replica: it bootstraps from the primary's
// checkpoint snapshot, follows its log stream, and swaps re-bootstrapped
// indexes in under live traffic. Lookups, joins, and /stats serve normally;
// the mutating endpoints answer 409 pointing at the primary.
func runFollower(logger *slog.Logger, primaryURL, dir, addr, reloadToken, replicateToken string, pprofOn bool, mutationRPS float64, drain time.Duration) {
	logger = logger.With(slog.String("role", "follower"))
	if dir == "" {
		d, err := os.MkdirTemp("", "actserve-replica-*")
		if err != nil {
			fatal(logger, "creating replica dir failed", slog.String("error", err.Error()))
		}
		defer os.RemoveAll(d)
		dir = d
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Every bootstrap is published into the served holder (the first as
	// generation 1), the way a /reload swaps an index in.
	var indexes act.Swappable
	metrics := server.NewMetrics()
	fol := replica.NewFollower(primaryURL, dir, &indexes, act.WithObserver(metrics.ActObserver(logger)))
	fol.Token = replicateToken
	fol.Logger = logger
	if err := fol.Bootstrap(ctx); err != nil {
		fatal(logger, "bootstrap failed", slog.String("primary", primaryURL), slog.String("error", err.Error()))
	}
	idx := indexes.Load()
	st := idx.Status().Build
	logger.Info("following",
		slog.String("primary", primaryURL),
		slog.Int("polygons", st.NumPolygons),
		slog.Float64("mb", float64(st.TotalBytes())/1e6),
		slog.Float64("epsilon_meters", idx.PrecisionMeters()),
		slog.String("addr", addr),
	)

	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		fol.Run(ctx)
	}()

	handler := server.NewServer(&indexes, server.BuildDefaults{Precision: idx.PrecisionMeters(), Grid: idx.GridKind()}, metrics)
	handler.Logger = logger
	handler.ReloadToken = reloadToken
	handler.EnableMutationLimit(mutationRPS)
	handler.EnableFollower(fol)
	if pprofOn {
		handler.EnablePprof()
		logger.Info("pprof enabled", slog.String("prefix", "/debug/pprof/"))
	}
	serve(ctx, stop, logger, addr, handler, drain, func() error {
		// Once the replication loop has quit (its context is done) the
		// serving index can close without racing an apply.
		<-runDone
		return indexes.Load().Close()
	})
}
