package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"github.com/actindex/act"
)

// mutationToken gates the child's mutating endpoints, as a deployment
// would.
const mutationToken = "bench-token"

// run carries one benchmark run through its phases.
type run struct {
	w        *workload
	sz       sizes
	seed     int64
	dir      string // this run's scratch directory
	actserve string
	pl       *placement
	tr       *tracer // nil in an untraced run
	spec     *spec

	metrics   map[string]float64
	notes     []string // lines for the report that are not metrics
	attempted int64
	failed    int64
	failures  []string // the first few, for the report

	in        *inputs
	or        *oracle
	exp       []expected
	ix        *act.Index
	indexFile string
	child     *child // the child the next served phase talks to
	peakRSS   float64
}

// set records a metric. Every name is one of BENCHMARK.json's: the file and
// what the harness emits cannot drift apart.
func (r *run) set(name string, v float64) {
	if _, ok := r.spec.units[name]; !ok {
		panic("metric " + name + " is not in BENCHMARK.json")
	}
	r.metrics[name] = v
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// failf counts n failed operations and keeps the first few descriptions.
func (r *run) failf(n int, format string, args ...any) {
	r.failed += int64(n)
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// retire reads the child's peak RSS, then kills it.
func (r *run) retire(c *child) {
	if mb, err := peakRSSMB(c.pid()); err == nil {
		r.peakRSS = max(r.peakRSS, mb)
	}
	c.kill()
}

// execute runs the phases of the workload's row of the matrix; a traced run
// runs every phase, because the per-layer table is reported whole.
func (r *run) execute() error {
	var err error
	if r.in, err = generate(r.w, r.seed, r.sz); err != nil {
		return err
	}
	r.set("bench.generate_s", r.in.generateS)
	if r.or, err = newOracle(r.in.set.Polygons, r.in.sample); err != nil {
		return err
	}
	if err := r.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer func() {
		if r.child != nil {
			r.retire(r.child)
		}
	}()
	if err := r.checkIndex(); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	traced := r.tr != nil
	quiesce()
	if err := r.bulk(!r.w.served || traced); err != nil {
		return fmt.Errorf("bulk joins: %w", err)
	}
	if !r.w.served && !traced {
		return nil
	}
	quiesce()
	if !r.w.churn {
		if r.child == nil {
			if r.child, err = startChild(r.actserve, []string{"-index", r.indexFile}, r.childLog()); err != nil {
				return err
			}
		}
		if err := r.reads(r.child, nil); err != nil {
			return fmt.Errorf("read phases: %w", err)
		}
		r.retire(r.child)
		r.child = nil
		quiesce()
	}
	if r.w.churn || traced {
		if err := r.churn(); err != nil {
			return fmt.Errorf("churn: %w", err)
		}
	}
	r.set("peak_rss_mb", r.peakRSS)
	r.set("server.failed_share", float64(r.failed)/float64(max(r.attempted, 1)))
	return nil
}

// quiesce collects the harness's garbage and hands freed memory back now,
// so that neither the collector nor the scavenger wakes up inside the next
// phase.
func quiesce() {
	debug.FreeOSMemory()
}

// stateArgs are the actserve flags of a durable, mutable deployment over
// the durability pair in dir.
func stateArgs(dir string) []string {
	return []string{
		"-index", filepath.Join(dir, "index.act"),
		"-wal", filepath.Join(dir, "index.wal"),
		"-fsync", "interval",
		"-reload-token", mutationToken,
	}
}

func (r *run) childLog() string { return filepath.Join(r.dir, "actserve.stderr") }

// setup measures polygons-in-memory → ready-to-answer, several times, and
// leaves behind the in-process index and its file. For a served workload the
// child's start is part of the time, and the last repetition's child stays
// for the served phases.
func (r *run) setup() error {
	sp := r.tr.begin("setup")
	defer r.tr.end(sp)
	stateDir := filepath.Join(r.dir, "state")
	r.indexFile = filepath.Join(r.dir, "index.act")
	args := []string{"-index", r.indexFile}
	if r.w.churn {
		r.indexFile = filepath.Join(stateDir, "index.act")
		args = stateArgs(stateDir)
	}
	var times []float64
	for rep := 0; rep < r.sz.setupReps; rep++ {
		if r.child != nil {
			r.retire(r.child)
			r.child = nil
		}
		if r.ix != nil {
			r.ix.Close()
		}
		// A durable child must not find the previous repetition's log.
		os.RemoveAll(stateDir)
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			return err
		}
		quiesce() // the previous repetition's index is garbage now
		rs := r.tr.begin("setup.rep")
		t0 := time.Now()
		ix, err := act.New(r.in.set.Polygons, act.WithPrecision(r.w.epsilon))
		if err != nil {
			return err
		}
		r.ix = ix
		if r.w.served {
			if err := writeIndex(ix, r.indexFile); err != nil {
				return err
			}
			if r.child, err = startChild(r.actserve, args, r.childLog()); err != nil {
				return err
			}
		}
		times = append(times, time.Since(t0).Seconds())
		r.tr.end(rs)
	}
	r.set("setup_s", median(times))
	if !r.w.served {
		if err := writeIndex(r.ix, r.indexFile); err != nil {
			return err
		}
	}
	fi, err := os.Stat(r.indexFile)
	if err != nil {
		return err
	}
	r.set("index_bytes_per_polygon", float64(fi.Size())/float64(len(r.in.set.Polygons)))
	return nil
}

func writeIndex(ix *act.Index, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := ix.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkIndex holds the in-process index against the oracle on the sample.
func (r *run) checkIndex() error {
	sp := r.tr.begin("oracle")
	defer r.tr.end(sp)
	exp, failed, err := r.or.checkIndex(r.ix, r.in.sample, r.w.epsilon)
	if err != nil {
		return err
	}
	r.exp = exp
	r.attempted += int64(len(r.in.sample))
	if failed > 0 {
		r.failf(failed, "%d of %d sample points: join disagrees with the oracle", failed, len(r.in.sample))
	}
	return nil
}

// joinOnce times one whole join of the bulk points on one thread, inside a
// span, and returns its ns per point.
func (r *run) joinOnce(name string, mode act.JoinMode) (float64, act.JoinStats, error) {
	s := r.tr.begin(name)
	t0 := time.Now()
	_, st, err := r.ix.JoinContext(context.Background(), r.in.bulk, mode, 1)
	d := time.Since(t0)
	r.tr.end(s)
	return float64(d.Nanoseconds()) / float64(len(r.in.bulk)), st, err
}

// bulk times the batch caller's two joins, approximate and exact in
// alternating slices so that both see the same stretch of host weather, after
// one warm-up slice of each (caches, scratch pools); the median slice is
// reported. A workload whose row has no bulk timings runs the one approximate
// join that candidate_share is counted on.
func (r *run) bulk(timed bool) error {
	sp := r.tr.begin("bulk")
	defer r.tr.end(sp)
	if !timed {
		_, st, err := r.joinOnce("act.JoinContext", act.Approximate)
		r.set("candidate_share", float64(st.CandidateHits)/float64(max(st.Pairs(), 1)))
		return err
	}
	var approx, exact []float64
	var ast act.JoinStats
	for i := 0; i <= r.sz.bulkSlices; i++ {
		a, st, err := r.joinOnce("act.JoinContext", act.Approximate)
		if err != nil {
			return err
		}
		e, _, err := r.joinOnce("act.JoinExact", act.Exact)
		if err != nil {
			return err
		}
		if ast = st; i > 0 {
			approx, exact = append(approx, a), append(exact, e)
		}
	}
	r.set("join_ns_per_point", median(approx))
	r.set("exact_ns_per_point", median(exact))
	r.set("candidate_share", float64(ast.CandidateHits)/float64(max(ast.Pairs(), 1)))
	return nil
}

// readPhase is one kind of request of the closed-loop read phases and what
// its timed slices measured.
type readPhase struct {
	span     string
	perSlice int
	// issue sends request k, checks the answer and reports its latency;
	// ok is false for a request that failed or answered wrongly.
	issue     func(k int) (d time.Duration, ok bool)
	lat       []time.Duration // every good request of the timed slices
	p50, p90  []float64       // per slice
	cpuPerReq []float64       // child CPU per request, per slice
}

// reads runs the closed-loop read phases against c on one connection:
// single-point GET /lookup and POST /join with joinBody-point bodies, in
// alternating slices so that both see the same stretch of host weather.
// With a nil model every response must equal the oracle-checked in-process
// answer; with a model (the server has been mutated since) every response
// must be consistent with the model's truth.
func (r *run) reads(c *child, m *model) error {
	sp := r.tr.begin("reads")
	defer r.tr.end(sp)
	cl := newClient(c.base, "")
	defer cl.close()
	sample, nb := r.in.sample, r.sz.joinBody

	lookups := &readPhase{span: "GET /lookup", perSlice: r.sz.lookupsPerSlice}
	lookups.issue = func(k int) (time.Duration, bool) {
		k %= len(sample)
		ans, d, err := cl.lookup(sample[k], false)
		switch {
		case err != nil:
			r.failf(1, "lookup %d: %v", k, err)
		case m == nil && !r.exp[k].matches(ans), m != nil && !consistent(m.truth(sample[k]), ans):
			r.failf(1, "lookup %d (%v): answer %+v disagrees with the oracle", k, sample[k], ans)
		default:
			return d, true
		}
		return d, false
	}
	joins := &readPhase{span: "POST /join", perSlice: r.sz.joinsPerSlice}
	joins.issue = func(k int) (time.Duration, bool) {
		k %= len(sample) / nb
		pts, exp := sample[k*nb:(k+1)*nb], r.exp[k*nb:(k+1)*nb]
		jc, d, err := cl.join(joinBody(pts))
		if err != nil {
			r.failf(1, "join body %d: %v", k, err)
			return d, false
		}
		var ok bool
		if m == nil {
			// Counts always; every 16th response pair by pair.
			ok = jc == joinExpectation(exp) && (k%16 != 0 || r.pairsMatch(cl, exp))
		} else {
			ok = jc.Lines == jc.Pairs && jc.Pairs == jc.TrueHits+jc.CandidateHits && joinConsistent(m, pts, jc)
		}
		if !ok {
			r.failf(1, "join body %d: trailer %+v disagrees with the oracle", k, jc)
		}
		return d, ok
	}

	var prom0, prom1 promSample
	var err error
	for s := 0; s <= r.sz.serveSlices; s++ {
		if s == 1 { // slice 0 is the warm-up
			if prom0, err = cl.scrape(); err != nil {
				return err
			}
		}
		for _, ph := range []*readPhase{lookups, joins} {
			ss := r.tr.begin(ph.span + " slice")
			cpu0, err := cpuSeconds(c.pid())
			if err != nil {
				return err
			}
			first := len(ph.lat)
			for i := 0; i < ph.perSlice; i++ {
				r.attempted++
				t0 := time.Now()
				d, ok := ph.issue(s*ph.perSlice + i)
				if ok && s > 0 {
					ph.lat = append(ph.lat, d)
					if i < 100 {
						r.tr.leaf(ph.span, t0, d)
					}
				}
			}
			cpu1, err := cpuSeconds(c.pid())
			if err != nil {
				return err
			}
			r.tr.end(ss)
			if s > 0 && len(ph.lat) > first {
				us := micros(ph.lat[first:])
				ph.p50, ph.p90 = append(ph.p50, percentile(us, 50)), append(ph.p90, percentile(us, 90))
				ph.cpuPerReq = append(ph.cpuPerReq, (cpu1-cpu0)*1e6/float64(ph.perSlice))
			}
		}
	}
	if prom1, err = cl.scrape(); err != nil {
		return err
	}
	if len(lookups.lat) == 0 || len(joins.lat) == 0 {
		return fmt.Errorf("no successful /lookup or /join in the timed slices")
	}

	// Percentiles are taken per slice and the median slice is reported;
	// the far tail, which a slice is too short for, over all timed requests.
	us := micros(lookups.lat)
	r.set("lookup_p50_us", median(lookups.p50))
	r.set("lookup_p90_us", median(lookups.p90))
	r.set("lookup_cpu_us_per_req", median(lookups.cpuPerReq))
	r.set("server.lookup_p99_us", percentile(us, 99))
	r.set("server.lookup_p999_us", percentile(us, 99.9))
	r.set("join_req_p50_us", median(joins.p50))
	r.set("join_cpu_us_per_req", median(joins.cpuPerReq))
	r.set("server.join_req_p99_us", percentile(micros(joins.lat), 99))

	const sum, count = `act_http_request_duration_seconds_sum{route="lookup"}`, `act_http_request_duration_seconds_count{route="lookup"}`
	if dn := prom1[count] - prom0[count]; dn > 0 {
		handler := (prom1[sum] - prom0[sum]) / dn * 1e6
		r.set("server.metrics_lookup_us_per_req", handler)
		r.set("server.loopback_overhead_us", median(lookups.p50)-handler)
		const respBytes = `act_http_response_bytes_total{route="lookup"}`
		r.set("server.resp_bytes_per_lookup", (prom1[respBytes]-prom0[respBytes])/dn)
	}
	if r.tr != nil {
		return r.openLoop(cl)
	}
	return nil
}

// openLoop sends lookups on a fixed schedule regardless of how the previous
// one fared, spin-paced, each timed from the moment it was due — so a stall
// is charged to every request it delays. One connection: a late response
// makes the generator itself late, which is reported too.
func (r *run) openLoop(cl *client) error {
	sp := r.tr.begin("open loop")
	defer r.tr.end(sp)
	gap := time.Second / time.Duration(r.sz.openLoopRate)
	n := int(r.sz.openLoop / gap)
	lat := make([]time.Duration, 0, n)
	var late time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * gap)
		for time.Now().Before(due) {
		}
		late += time.Since(due)
		r.attempted++
		k := i % len(r.in.sample)
		if _, _, err := cl.lookup(r.in.sample[k], false); err != nil {
			r.failf(1, "open-loop lookup %d: %v", k, err)
			continue
		}
		lat = append(lat, time.Since(due))
	}
	if len(lat) == 0 {
		return fmt.Errorf("no open-loop lookup succeeded")
	}
	us := micros(lat)
	r.set("server.open_loop_lookup_p50_us", percentile(us, 50))
	r.set("server.open_loop_lookup_p99_us", percentile(us, 99))
	r.set("server.open_loop_late_us", float64(late.Microseconds())/float64(n))
	return nil
}

// pairsMatch compares the pair lines of the last /join response with the
// expected per-point answers.
func (r *run) pairsMatch(cl *client, exp []expected) bool {
	pairs, err := cl.joinPairs()
	if err != nil {
		return false
	}
	got := make([]expected, len(exp))
	for _, p := range pairs {
		if p.Point < 0 || p.Point >= len(got) {
			return false
		}
		if p.Class == act.TrueHit {
			got[p.Point].trueHits = append(got[p.Point].trueHits, p.Polygon)
		} else {
			got[p.Point].candidates = append(got[p.Point].candidates, p.Polygon)
		}
	}
	for i := range got {
		slices.Sort(got[i].trueHits)
		slices.Sort(got[i].candidates)
		if !slices.Equal(got[i].trueHits, exp[i].trueHits) || !slices.Equal(got[i].candidates, exp[i].candidates) {
			return false
		}
	}
	return true
}

// consistent reports whether an approximate answer can be right given the
// polygons that truly contain the point: true hits are certain, so each must
// be in truth, and no member of truth may be missing.
func consistent(truth []uint32, a lookupAnswer) bool {
	for _, id := range a.True {
		if !slices.Contains(truth, id) {
			return false
		}
	}
	for _, id := range truth {
		if !slices.Contains(a.True, id) && !slices.Contains(a.Candidates, id) {
			return false
		}
	}
	return true
}

// joinConsistent bounds a /join trailer by the model's truth for the body:
// true hits ≤ truly-contained pairs ≤ all pairs, and a point inside some
// polygon is never a miss.
func joinConsistent(m *model, pts []act.LatLng, jc joinCounts) bool {
	var inside, empty int64
	for _, p := range pts {
		t := m.truth(p)
		inside += int64(len(t))
		if len(t) == 0 {
			empty++
		}
	}
	return jc.TrueHits <= inside && inside <= jc.Pairs && jc.Misses <= empty
}

// churn starts the durable child (unless setup already did), drives the
// mutation schedule with a think-time reader beside it, lands the server in
// a state that repeats, verifies it against the model, runs the read phases
// there if they are in the workload's row, then kills the child and times
// restarts from copies of its state.
func (r *run) churn() error {
	sched := makeSchedule(r.seed, r.sz, r.or, r.in.sample)
	m, err := newModel(r.or, sched)
	if err != nil {
		return err
	}
	stateDir := filepath.Join(r.dir, "state")
	if r.child == nil {
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			return err
		}
		if err := copyFile(r.indexFile, filepath.Join(stateDir, "index.act")); err != nil {
			return err
		}
		if r.child, err = startChild(r.actserve, stateArgs(stateDir), r.childLog()); err != nil {
			return err
		}
	}
	c := r.child
	mc := newClient(c.base, mutationToken)
	defer mc.close()
	if err := r.mutate(c, mc, sched, m); err != nil {
		return err
	}
	landed, err := r.land(c, mc, sched, m)
	if err != nil {
		return err
	}
	probes := make([]act.LatLng, 0, len(sched.steps)+len(landed)+200)
	for _, s := range append(sched.steps, landed...) {
		probes = append(probes, s.probe)
	}
	probes = append(probes, r.in.sample[:min(200, len(r.in.sample))]...)
	r.verify(mc, m, probes, "after the schedule")

	if r.w.churn {
		if err := r.reads(c, m); err != nil {
			return fmt.Errorf("read phases: %w", err)
		}
	}

	// SIGKILL keeps the page cache, so the restarts below check log replay,
	// not the fsync policy.
	r.retire(c)
	r.child = nil
	sp := r.tr.begin("restarts")
	defer r.tr.end(sp)
	var times []float64
	for i := 0; i < r.sz.restarts; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("restart-%d", i))
		if err := copyDir(stateDir, dir); err != nil {
			return err
		}
		rs := r.tr.begin("restart")
		t0 := time.Now()
		rc, err := startChild(r.actserve, stateArgs(dir), r.childLog())
		if err != nil {
			return fmt.Errorf("restart %d: %w", i, err)
		}
		rcl := newClient(rc.base, "")
		r.verify(rcl, m, probes[:1], "first lookup after restart")
		times = append(times, time.Since(t0).Seconds())
		r.tr.end(rs)
		r.verify(rcl, m, probes, fmt.Sprintf("after restart %d", i))
		rcl.close()
		r.retire(rc)
		os.RemoveAll(dir)
	}
	r.set("recover_s", median(times))
	return nil
}

// verify holds exact and approximate lookups of every probe against the
// model: acknowledged inserts present, removed ids absent, nothing else.
func (r *run) verify(cl *client, m *model, probes []act.LatLng, when string) {
	for _, p := range probes {
		truth := m.truth(p)
		r.attempted += 2
		ans, _, err := cl.lookup(p, true)
		if err != nil {
			r.failf(1, "%s: exact lookup %v: %v", when, p, err)
		} else if slices.Sort(ans.True); !slices.Equal(ans.True, truth) || len(ans.Candidates) != 0 {
			r.failf(1, "%s: exact lookup %v = %v, model says %v", when, p, ans.True, truth)
		}
		ans, _, err = cl.lookup(p, false)
		if err != nil {
			r.failf(1, "%s: lookup %v: %v", when, p, err)
		} else if !consistent(truth, ans) {
			r.failf(1, "%s: lookup %v = %+v, model says %v", when, p, ans, truth)
		}
	}
}

// apply sends one mutation and books the answer in the model. A step that
// fails is a failed operation and leaves the model as it was, so the steps
// after it are held to what the server did acknowledge.
func (r *run) apply(mc *client, m *model, s mutation) (d time.Duration, ok bool) {
	r.attempted++
	t0 := time.Now()
	switch {
	case s.insert:
		id, d, err := mc.insert(s.body)
		if err != nil {
			r.failf(1, "insert of zone %d: %v", s.zone, err)
			return d, false
		}
		if int64(id) <= m.maxID {
			r.failf(1, "insert of zone %d: id %d reused (highest so far %d)", s.zone, id, m.maxID)
		}
		m.maxID = max(m.maxID, int64(id))
		m.zoneID[s.zone], m.zoneLive[s.zone] = id, true
		r.tr.leaf("POST /polygons", t0, d)
		return d, true
	case s.base >= 0:
		d, err := mc.remove(uint32(s.base))
		if err != nil {
			r.failf(1, "remove of base polygon %d: %v", s.base, err)
			return d, false
		}
		m.baseRemoved[uint32(s.base)] = true
		r.tr.leaf("DELETE /polygons", t0, d)
		return d, true
	case !m.zoneLive[s.zone]:
		r.failf(1, "remove of zone %d: its insert was never acknowledged", s.zone)
		return 0, false
	default:
		d, err := mc.remove(m.zoneID[s.zone])
		if err != nil {
			r.failf(1, "remove of zone %d: %v", s.zone, err)
			return d, false
		}
		m.zoneLive[s.zone] = false
		r.tr.leaf("DELETE /polygons", t0, d)
		return d, true
	}
}

// mutate drives the schedule closed-loop at full speed on one connection
// while a second connection reads with a fixed think time. The server
// compacts when and as often as its own policy says; the harness only counts
// how often it did.
func (r *run) mutate(c *child, mc *client, sched schedule, m *model) error {
	sp := r.tr.begin("churn")
	defer r.tr.end(sp)
	prom0, err := mc.scrape()
	if err != nil {
		return err
	}

	// The reader.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var rd struct {
		lookups, joins []time.Duration
		attempted      int64
		errs           []string
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rc := newClient(c.base, "")
		defer rc.close()
		nb := r.sz.joinBody
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rd.attempted++
			if i%25 == 0 {
				k := (i / 25) % (len(r.in.sample) / nb)
				jc, d, err := rc.join(joinBody(r.in.sample[k*nb : (k+1)*nb]))
				if err != nil || jc.Lines != jc.Pairs {
					rd.errs = append(rd.errs, fmt.Sprintf("join beside writes: %v %+v", err, jc))
				} else {
					rd.joins = append(rd.joins, d)
				}
			} else {
				_, d, err := rc.lookup(r.in.sample[i%len(r.in.sample)], false)
				if err != nil {
					rd.errs = append(rd.errs, fmt.Sprintf("lookup beside writes: %v", err))
				} else {
					rd.lookups = append(rd.lookups, d)
				}
			}
			time.Sleep(r.sz.thinkTime)
		}
	}()

	var inserts []time.Duration
	t0 := time.Now()
	for _, s := range sched.steps {
		if d, ok := r.apply(mc, m, s); ok && s.insert {
			inserts = append(inserts, d)
		}
	}
	wall := time.Since(t0)
	close(stop)
	wg.Wait()
	prom1, err := mc.scrape()
	if err != nil {
		return err
	}

	r.attempted += rd.attempted
	for _, e := range rd.errs {
		r.failf(1, "%s", e)
	}
	if len(inserts) == 0 || len(rd.lookups) == 0 {
		return fmt.Errorf("schedule produced no successful inserts or no reads")
	}
	r.set("insert_p50_ms", percentile(micros(inserts), 50)/1000)
	r.set("mutations_per_s", float64(len(sched.steps))/wall.Seconds())
	us := micros(rd.lookups)
	r.set("server.churn_lookup_p50_us", percentile(us, 50))
	r.set("server.churn_lookup_p90_us", percentile(us, 90))
	r.set("server.read_stall_max_ms", us[len(us)-1]/1000)
	if len(rd.joins) > 0 {
		r.set("server.churn_join_req_p50_us", percentile(micros(rd.joins), 50))
	}
	delta := func(name string) float64 { return prom1[name] - prom0[name] }
	r.set("wal.fsyncs_per_mutation", delta("act_wal_fsyncs_total")/float64(len(sched.steps)))
	r.set("wal.fsync_ms_p50", histogramQuantile(prom0, prom1, "act_wal_fsync_duration_seconds", 0.5)*1000)
	r.set("act.compactions", delta("act_compactions_total"))
	r.set("act.compaction_busy_share", delta("act_compaction_duration_seconds_sum")/wall.Seconds())
	return nil
}

// land brings the server, after the schedule, to a state that repeats from
// run to run, so that the reads and the restarts that follow meet the same
// overlay and the same log tail every time. Where the schedule leaves the
// server depends on when its compactions happened to start. So: wait until
// the child is idle; feed it single inserts, waiting after each, until
// /stats counts one more compaction — nothing arrived while that one ran, so
// it left the delta layer empty; then insert sz.tail more. Nothing here knows
// the server's trigger: it watches what the server reports, and a server
// that has not compacted after sz.landMax inserts is taken as it is. It
// returns the steps it applied.
func (r *run) land(c *child, mc *client, sched schedule, m *model) ([]mutation, error) {
	sp := r.tr.begin("land")
	defer r.tr.end(sp)
	const step, settled = 10 * time.Millisecond, 50 * time.Millisecond
	if err := awaitIdle(c.pid(), settled); err != nil {
		return nil, err
	}
	st, err := mc.stats()
	if err != nil {
		return nil, err
	}
	n, before := 0, st.Compactions
	for st.DeltaPolygons+st.Tombstones > 0 && st.Compactions == before && n < r.sz.landMax {
		r.apply(mc, m, sched.landing[n])
		n++
		if err := awaitIdle(c.pid(), step); err != nil {
			return nil, err
		}
		if st, err = mc.stats(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < r.sz.tail; i++ {
		r.apply(mc, m, sched.landing[n])
		n++
	}
	if err := awaitIdle(c.pid(), settled); err != nil {
		return nil, err
	}
	if st, err = mc.stats(); err != nil {
		return nil, err
	}
	r.notef("landed after %d extra inserts: %d compactions in all, %d entries pending", n, st.Compactions, st.DeltaPolygons+st.Tombstones)
	return sched.landing[:n], nil
}

// awaitIdle returns once the process has used next to no CPU for quiet: a
// compaction, which nothing else reports while it runs, is over by then.
func awaitIdle(pid int, quiet time.Duration) error {
	const window = 5 * time.Millisecond
	prev, err := cpuSeconds(pid)
	if err != nil {
		return err
	}
	idle := time.Duration(0)
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); {
		time.Sleep(window)
		cur, err := cpuSeconds(pid)
		if err != nil {
			return err
		}
		if idle += window; cur-prev > 0.1*window.Seconds() {
			idle = 0
		}
		if idle >= quiet {
			return nil
		}
		prev = cur
	}
	return fmt.Errorf("actserve still busy after 60s")
}
