package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/core"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/data"
	"github.com/actindex/act/internal/delta"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/geostore"
	"github.com/actindex/act/internal/grid"
	"github.com/actindex/act/internal/join"
	"github.com/actindex/act/internal/server"
	"github.com/actindex/act/internal/supercover"
	"github.com/actindex/act/internal/wal"
)

// pieces is the index taken apart: the same polygons pushed through the
// build pipeline one exported function at a time, so each layer can be
// called — and timed — on its own.
type pieces struct {
	g       grid.Grid
	coverer *cover.Coverer
	trie    *core.Trie
	store   *geostore.Store
}

// layers measures every layer from outside, single-threaded, on the points
// of the workload. It runs after the phases of execute, whose numbers it
// uses as the thickest slices of the ladders.
func (r *run) layers() error {
	sp := r.tr.begin("layers")
	defer r.tr.end(sp)
	pc, err := r.buildPieces()
	if err != nil {
		return fmt.Errorf("build pipeline: %w", err)
	}
	pts := r.in.bulk[:min(len(r.in.bulk), r.sz.layerPoints)]
	if err := r.bulkLadder(pc, pts); err != nil {
		return fmt.Errorf("bulk ladder: %w", err)
	}
	zones := extraZones(r.seed, max(r.sz.replayRecords[1], r.sz.insertAt[2]+3))
	if err := r.overlayLayers(pc, pts, zones); err != nil {
		return fmt.Errorf("overlay: %w", err)
	}
	if err := r.handlerLayers(); err != nil {
		return fmt.Errorf("handlers: %w", err)
	}
	if err := r.fileLayers(); err != nil {
		return fmt.Errorf("index files: %w", err)
	}
	if err := r.logLayers(zones); err != nil {
		return fmt.Errorf("log and replay: %w", err)
	}
	if err := r.insertLayers(zones); err != nil {
		return fmt.Errorf("inserts: %w", err)
	}
	return r.traceOverhead()
}

// timed runs fn reps times after a warm-up inside spans named name and
// returns the median duration per unit.
func (r *run) timed(name string, units int, fn func()) float64 {
	fn()
	ds := make([]float64, r.sz.layerReps)
	for i := range ds {
		s := r.tr.begin(name)
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
		r.tr.end(s)
	}
	return median(ds) / float64(units)
}

// once times a single call of fn inside a span.
func (r *run) once(name string, fn func() error) (time.Duration, error) {
	s := r.tr.begin(name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.tr.end(s)
	return d, err
}

// buildPieces rebuilds the index layer by layer: coverings, super covering,
// trie, geometry store. BuildStats of the act.New that setup ran is printed
// beside them as a cross-check.
func (r *run) buildPieces() (*pieces, error) {
	polys := r.in.set.Polygons
	pc := &pieces{g: grid.NewPlanar()}
	var err error
	if pc.coverer, err = cover.NewCoverer(pc.g, r.w.epsilon); err != nil {
		return nil, err
	}
	covs := make([]*cover.Covering, len(polys))
	cells := 0
	d, err := r.once("cover.Coverer.Cover", func() error {
		for i, p := range polys {
			if covs[i], err = pc.coverer.Cover(p); err != nil {
				return err
			}
			cells += covs[i].NumCells()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.set("cover.cover_us_per_polygon", float64(d.Microseconds())/float64(len(polys)))
	r.set("cover.cells_per_polygon", float64(cells)/float64(len(polys)))

	var sc *supercover.SuperCovering
	d, err = r.once("supercover.Builder.Build", func() error {
		var b supercover.Builder
		for i, c := range covs {
			if err := b.Add(uint32(i), c); err != nil {
				return err
			}
		}
		sc = b.Build()
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.set("supercover.build_s", d.Seconds())
	r.set("supercover.cells", float64(sc.NumCells()))

	d, err = r.once("core.Build", func() error {
		pc.trie, err = core.Build(sc, core.DefaultConfig())
		return err
	})
	if err != nil {
		return nil, err
	}
	ts := pc.trie.ComputeStats()
	r.set("core.build_s", d.Seconds())
	r.set("core.nodes", float64(ts.NumNodes))
	r.set("core.trie_bytes", float64(ts.TrieBytes))
	r.set("core.table_bytes", float64(ts.TableBytes))
	r.set("core.max_depth", float64(ts.MaxDepth))

	d, err = r.once("geostore.New", func() error {
		projected := make([]*geom.Polygon, len(polys))
		for i, p := range polys {
			if _, projected[i], err = grid.ProjectPolygon(pc.g, p); err != nil {
				return err
			}
		}
		pc.store, err = geostore.New(projected)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.set("geostore.new_s", d.Seconds())
	r.set("geostore.bytes", float64(pc.store.MemoryBytes()))

	bs := r.ix.Stats()
	r.notef("act.New's own BuildStats: cover %v, merge %v, insert %v", bs.CoverDuration, bs.MergeDuration, bs.InsertDuration)
	if int(bs.TrieBytes) != int(ts.TrieBytes) || bs.IndexedCells != sc.NumCells() {
		return nil, fmt.Errorf("pieces disagree with act.New: trie %d vs %d bytes, %d vs %d cells", ts.TrieBytes, bs.TrieBytes, sc.NumCells(), bs.IndexedCells)
	}
	return pc, nil
}

// bulkLadder pushes pts through successively thicker slices of the join:
// leaf cells → trie probe → one engine chunk → the public join, then the
// same with refinement.
func (r *run) bulkLadder(pc *pieces, pts []act.LatLng) error {
	n := len(pts)
	ctx := context.Background()
	var leaves []cellid.ID
	leafNs := r.timed("grid.LeafCells", n, func() { leaves = grid.LeafCells(pc.g, pts, leaves[:0]) })
	r.set("grid.leafcell_ns_per_point", leafNs)

	// The engine sorts probes per chunk, not per join: sort in its chunks
	// so the probe sees the locality the engine gives it.
	sorted := slices.Clone(leaves)
	chunk := min(max(n/8, 1<<10), 1<<16)
	for lo := 0; lo < n; lo += chunk {
		slices.Sort(sorted[lo:min(lo+chunk, n)])
	}
	var res core.Result
	hits := 0
	count := func(_ int, hit bool) {
		if hit {
			hits++
		}
	}
	sortedNs := r.timed("core.Trie.LookupBatch", n, func() { pc.trie.LookupBatch(sorted, &res, count) })
	var bs core.BatchScratch
	width := max(pc.trie.InterleaveWidth(core.InterleaveAuto), 8)
	interNs := r.timed("core.Trie.LookupBatchInterleaved", n, func() { pc.trie.LookupBatchInterleaved(sorted, width, &bs, &res, count) })
	scalarNs := r.timed("core.Trie.Lookup", n, func() {
		for _, leaf := range leaves {
			res.Reset()
			pc.trie.Lookup(leaf, &res)
		}
	})
	accesses := 0
	for _, leaf := range leaves {
		res.Reset()
		_, a := pc.trie.LookupCounting(leaf, &res)
		accesses += a
	}
	r.set("core.probe_sorted_ns_per_point", sortedNs)
	r.set("core.probe_interleaved_ns_per_point", interNs)
	r.set("core.probe_scalar_ns_per_point", scalarNs)
	r.set("core.node_accesses_per_point", float64(accesses)/float64(n))

	numPolys := len(r.in.set.Polygons)
	var st join.Stats
	approx := &join.ACT{Grid: pc.g, Trie: pc.trie}
	chunkNs := r.timed("join.RunSink(ACT)", n, func() { st = join.RunSink(approx, pts, join.NewCountSink(numPolys), 1) })
	exactJ := &join.ACTExact{Grid: pc.g, Trie: pc.trie, Store: pc.store}
	exactNs := r.timed("join.RunSink(ACTExact)", n, func() { join.RunSink(exactJ, pts, join.NewCountSink(numPolys), 1) })
	// The engine probes with the width InterleaveAuto picks for this trie.
	probeNs := sortedNs
	if pc.trie.InterleaveWidth(core.InterleaveAuto) > 1 {
		probeNs = interNs
	}
	r.set("join.chunk_ns_per_point", chunkNs)
	r.set("join.exact_chunk_ns_per_point", exactNs)
	r.set("join.sort_emit_ns_per_point", chunkNs-leafNs-probeNs)
	r.set("join.true_hit_share", float64(st.TrueHits)/float64(max(st.Pairs(), 1)))
	r.set("join.miss_share", float64(st.Misses)/float64(n))
	r.set("join.pairs_per_point", float64(st.Pairs())/float64(n))

	// Refinement alone: Resolve on exactly the candidate lists the probe
	// produces for these points.
	var candPts []geom.Point
	var candIDs [][]uint32
	projected := grid.ProjectAll(pc.g, pts, nil)
	total := 0
	for i, leaf := range leaves {
		res.Reset()
		if pc.trie.Lookup(leaf, &res) && len(res.Candidates) > 0 {
			candPts = append(candPts, projected[i])
			candIDs = append(candIDs, slices.Clone(res.Candidates))
			total += len(res.Candidates)
		}
	}
	resolveNs, accepted := 0.0, 0
	if total > 0 {
		var dst []uint32
		resolveNs = r.timed("geostore.Store.Resolve", total, func() {
			accepted = 0
			for i, pt := range candPts {
				dst = pc.store.Resolve(pt, candIDs[i], dst[:0])
				accepted += len(dst)
			}
		})
	}
	r.set("geostore.resolve_ns_per_candidate", resolveNs)
	r.set("geostore.refine_accept_ratio", float64(accepted)/float64(max(total, 1)))

	// The public API over the same points.
	join1 := r.timed("act.Index.JoinContext(1)", n, func() { _, _, err := r.ix.JoinContext(ctx, pts, act.Approximate, 1); must(err) })
	// The one measurement that wants every CPU: let the run out for it.
	threads := len(r.pl.start.cpus())
	if err := r.pl.release(); err != nil {
		return err
	}
	joinN := r.timed("act.Index.JoinContext(nproc)", n, func() { _, _, err := r.ix.JoinContext(ctx, pts, act.Approximate, threads); must(err) })
	if err := r.pl.confine(); err != nil {
		return err
	}
	var refs []act.Match
	lookupNs := r.timed("act.Index.AppendRefs", n, func() {
		for _, p := range pts {
			refs = r.ix.AppendRefs(p, refs[:0])
		}
	})
	batchNs := r.timed("act.Index.LookupBatch", n, func() { _, err := r.ix.LookupBatch(ctx, pts); must(err) })
	r.set("act.join_1t_ns_per_point", join1)
	r.set("act.join_parallel_efficiency", join1/(joinN*float64(threads)))
	r.set("act.lookup_ns_per_point", lookupNs)
	r.set("act.lookup_batch_ns_per_point", batchNs)

	r.tr.addLadder([]rung{
		{Name: "act.Index.JoinContext(1 thread)", Unit: "ns", Time: join1},
		{Name: "join.RunSink(ACT)", Parent: "act.Index.JoinContext(1 thread)", Unit: "ns", Time: chunkNs},
		{Name: "grid.LeafCells", Parent: "join.RunSink(ACT)", Unit: "ns", Time: leafNs},
		{Name: "core.Trie probe (sorted, auto width)", Parent: "join.RunSink(ACT)", Unit: "ns", Time: probeNs},
	})
	r.tr.addLadder([]rung{
		{Name: "join.RunSink(ACTExact)", Unit: "ns", Time: exactNs},
		{Name: "join.RunSink(ACT) ", Parent: "join.RunSink(ACTExact)", Unit: "ns", Time: chunkNs},
		{Name: "geostore.Store.Resolve", Parent: "join.RunSink(ACTExact)", Unit: "ns", Time: resolveNs * float64(total) / float64(n)},
	})
	return nil
}

// must panics on an error that only a bug in the harness can cause (a join
// under a background context on an index that has its geometry).
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// extraZones generates n more zones, for overlays and fabricated logs.
func extraZones(seed int64, n int) []zone {
	rng := rand.New(rand.NewSource(seed + 3))
	zs := make([]zone, n)
	for i := range zs {
		zs[i] = makeZone(rng, data.NYCBound())
	}
	return zs
}

// overlayLayers builds a 64-polygon overlay from outside and times what the
// read path pays for it (Merge per point) and what the write path pays to
// grow it by one (the covering, and WithInsert).
func (r *run) overlayLayers(pc *pieces, pts []act.LatLng, zones []zone) error {
	first := uint32(len(r.in.set.Polygons))
	polys := make([]delta.Poly, 65)
	var coverTimes []float64
	for i := range polys {
		t0 := time.Now()
		cov, err := pc.coverer.Cover(zones[i].poly)
		coverTimes = append(coverTimes, float64(time.Since(t0)))
		if err != nil {
			return err
		}
		_, gp, err := grid.ProjectPolygon(pc.g, zones[i].poly)
		if err != nil {
			return err
		}
		polys[i] = delta.Poly{ID: first + uint32(i), Cov: cov, Geom: gp, Seq: uint64(i + 1)}
	}
	r.set("cover.insert_cover_ms", median(coverTimes)/1e6)
	ov, err := delta.New(pc.trie.Fanout(), polys[:64], nil)
	if err != nil {
		return err
	}
	leaves := grid.LeafCells(pc.g, pts, nil)
	var res core.Result
	mergeNs := r.timed("delta.Overlay.Merge", len(leaves), func() {
		for _, leaf := range leaves {
			res.Reset()
			ov.Merge(leaf, &res)
		}
	})
	r.set("delta.merge_ns_per_point", mergeNs)
	withInsert := r.timed("delta.Overlay.WithInsert", 1, func() { _, err := ov.WithInsert(pc.trie.Fanout(), polys[64]); must(err) })
	r.set("delta.with_insert_ms_at_64", withInsert/1e6)
	return nil
}

// nullWriter is a ResponseWriter that keeps nothing, so handler timings and
// allocation counts are the handler's own.
type nullWriter struct {
	h http.Header
	n int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(int)             {}
func (w *nullWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// handlerLayers calls the HTTP handler in-process, no socket: what a
// request costs between net/http handing it over and the last byte written.
func (r *run) handlerLayers() error {
	h := server.NewServer(act.NewSwappable(r.ix), server.BuildDefaults{Precision: r.w.epsilon})
	sample := r.in.sample
	const lookups = 2000
	reqs := make([]*http.Request, lookups)
	for i := range reqs {
		p := sample[i%len(sample)]
		u := fmt.Sprintf("/lookup?lat=%v&lng=%v", p.Lat, p.Lng)
		req, err := http.NewRequest(http.MethodGet, u, nil)
		if err != nil {
			return err
		}
		reqs[i] = req
	}
	w := &nullWriter{h: http.Header{}}
	serve := func() {
		for _, req := range reqs {
			clear(w.h)
			h.ServeHTTP(w, req)
		}
	}
	ns := r.timed("server.ServeHTTP GET /lookup", lookups, serve)
	r.set("server.handler_lookup_us_per_req", ns/1e3)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	serve()
	runtime.ReadMemStats(&m1)
	r.set("server.handler_lookup_allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/lookups)
	r.set("server.handler_lookup_bytes_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/lookups)

	nb := r.sz.joinBody
	bodies := make([][]byte, min(100, len(sample)/nb))
	for k := range bodies {
		bodies[k] = joinBody(sample[k*nb : (k+1)*nb])
	}
	joinNs := r.timed("server.ServeHTTP POST /join", len(bodies), func() {
		for _, b := range bodies {
			req, err := http.NewRequest(http.MethodPost, "/join", bytes.NewReader(b))
			must(err)
			clear(w.h)
			h.ServeHTTP(w, req)
		}
	})
	r.set("server.handler_join256_us_per_req", joinNs/1e3)

	r.tr.addLadder([]rung{
		{Name: "GET /lookup over loopback (client p50)", Unit: "us", Time: r.metrics["lookup_p50_us"]},
		{Name: "actserve process CPU", Parent: "GET /lookup over loopback (client p50)", Unit: "us", Time: r.metrics["lookup_cpu_us_per_req"]},
		{Name: "server.ServeHTTP (in-process)", Parent: "actserve process CPU", Unit: "us", Time: ns / 1e3},
		{Name: "act.Index.AppendRefs", Parent: "server.ServeHTTP (in-process)", Unit: "us", Time: r.metrics["act.lookup_ns_per_point"] / 1e3},
	})
	r.tr.addLadder([]rung{
		{Name: "POST /join over loopback (client p50)", Unit: "us", Time: r.metrics["join_req_p50_us"]},
		{Name: "actserve process CPU ", Parent: "POST /join over loopback (client p50)", Unit: "us", Time: r.metrics["join_cpu_us_per_req"]},
		{Name: "server.ServeHTTP (in-process) ", Parent: "actserve process CPU ", Unit: "us", Time: joinNs / 1e3},
		{Name: "act.Index.JoinContext(1 thread) ", Parent: "server.ServeHTTP (in-process) ", Unit: "us", Time: r.metrics["act.join_1t_ns_per_point"] * float64(nb) / 1e3},
	})
	return nil
}

// fileLayers times the index file: writing it, mapping it, copying it in.
func (r *run) fileLayers() error {
	path := filepath.Join(r.dir, "layers.act")
	ns := r.timed("act.Index.WriteTo", 1, func() { must(writeIndex(r.ix, path)) })
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.set("act.write_index_s", ns/1e9)
	r.set("act.index_file_bytes", float64(fi.Size()))
	ns = r.timed("act.OpenIndex", 1, func() {
		ix, err := act.OpenIndex(path)
		must(err)
		must(ix.Close())
	})
	r.set("act.open_index_ms", ns/1e6)
	ns = r.timed("act.ReadIndex", 1, func() {
		f, err := os.Open(path)
		must(err)
		defer f.Close()
		_, err = act.ReadIndex(f)
		must(err)
	})
	r.set("act.read_index_s", ns/1e9)
	return nil
}

// fabricateLog writes a log of n insert records continuing the id space of
// the index file, as a crashed server would have left it.
func fabricateLog(path string, firstID uint32, zones []zone) ([]wal.Record, int64, time.Duration, error) {
	log, _, err := wal.Open(path, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		return nil, 0, 0, err
	}
	recs := make([]wal.Record, len(zones))
	for i, z := range zones {
		recs[i] = wal.Record{Type: wal.TypeInsert, Seq: uint64(i + 1), ID: firstID + uint32(i), Data: z.body}
	}
	t0 := time.Now()
	for _, rec := range recs {
		if err := log.Append(rec); err != nil {
			log.Close()
			return nil, 0, 0, err
		}
	}
	d := time.Since(t0)
	bytes := log.Stats().Bytes
	return recs, bytes, d, log.Close()
}

// logLayers times the log's append path and what replaying a tail costs —
// through Recover at two tail lengths, so a super-linear replay shows as a
// slope, and through a follower's ApplyReplicated.
func (r *run) logLayers(zones []zone) error {
	snapshot := filepath.Join(r.dir, "layers.act") // written by fileLayers
	first := uint32(len(r.in.set.Polygons))
	for k, n := range r.sz.replayRecords {
		name := []string{"256", "1024"}[k] // what the metrics are called at full scale
		dir := filepath.Join(r.dir, fmt.Sprintf("replay-%d", n))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		idx, log := filepath.Join(dir, "index.act"), filepath.Join(dir, "index.wal")
		if err := copyFile(snapshot, idx); err != nil {
			return err
		}
		recs, size, appendTime, err := fabricateLog(log, first, zones[:n])
		if err != nil {
			return err
		}
		d, err := r.once(fmt.Sprintf("act.Recover(%d records)", n), func() error {
			ix, err := act.Recover(idx, log, act.WithDeltaThreshold(-1), act.WithWAL(act.WALConfig{Policy: act.SyncOff}))
			if err != nil {
				return err
			}
			if got := ix.WALStats().RecoveredRecords; got != n {
				return fmt.Errorf("replayed %d of %d records", got, n)
			}
			return ix.Close()
		})
		if err != nil {
			return err
		}
		r.set("act.recover_ms_per_record_at_"+name, float64(d.Microseconds())/1e3/float64(n))
		if k == 0 {
			continue
		}
		r.set("wal.append_us_per_record", float64(appendTime.Microseconds())/float64(n))
		r.set("wal.bytes_per_record", float64(size)/float64(n))
		d, err = r.once(fmt.Sprintf("act.Index.ApplyReplicated(%d records)", n), func() error {
			fol, err := act.OpenFollower(idx, act.WithDeltaThreshold(-1))
			if err != nil {
				return err
			}
			defer fol.Close()
			for lo := 0; lo < n; lo += 256 {
				if err := fol.ApplyReplicated(context.Background(), recs[lo:min(lo+256, n)]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		r.set("act.apply_replicated_us_per_record_at_1024", float64(d.Microseconds())/float64(n))
	}
	return nil
}

// insertLayers times Index.Insert in-process — no HTTP, no log, compaction
// off — around three overlay sizes (a linear write path would show the same
// time at all three), then Compact on the state that leaves.
func (r *run) insertLayers(zones []zone) error {
	ix, err := act.New(r.in.set.Polygons, act.WithPrecision(r.w.epsilon), act.WithDeltaThreshold(-1))
	if err != nil {
		return err
	}
	defer ix.Close()
	ctx := context.Background()
	at := r.sz.insertAt
	times := make([]float64, at[2]+3)
	sp := r.tr.begin(fmt.Sprintf("act.Index.Insert x%d", len(times)))
	for i := range times {
		t0 := time.Now()
		if _, err := ix.Insert(ctx, zones[i].poly); err != nil {
			return err
		}
		times[i] = float64(time.Since(t0)) / 1e6
	}
	r.tr.end(sp)
	for k, name := range []string{"0", "64", "120"} {
		lo := max(at[k]-1, 0)
		r.set("act.insert_ms_at_overlay_"+name, median(times[lo:lo+3]))
	}
	d, err := r.once("act.Index.Compact", func() error { return ix.Compact(ctx) })
	if err != nil {
		return err
	}
	r.set("act.compact_s", d.Seconds())
	return nil
}

// traceOverhead times the approximate bulk join in alternating slices with
// and without the tracer attached and compares the quietest of each.
func (r *run) traceOverhead() error {
	tr := r.tr
	defer func() { r.tr = tr }()
	best := [2]float64{math.Inf(1), math.Inf(1)}
	for i := 0; i < 2*r.sz.bulkSlices; i++ {
		r.tr = nil
		if i%2 == 1 {
			r.tr = tr
		}
		ns, _, err := r.joinOnce("act.JoinContext (overhead probe)", act.Approximate)
		if err != nil {
			return err
		}
		best[i%2] = min(best[i%2], ns)
	}
	r.set("bench.trace_overhead_pct", 100*(best[1]-best[0])/best[0])
	return nil
}
