// Package act implements approximate geospatial joins with precision
// guarantees, after Kipf et al., "Approximate Geospatial Joins with
// Precision Guarantees" (ICDE 2018).
//
// The library joins streaming points against a set of polygons. At build
// time every polygon is approximated by hierarchical-grid cells: interior
// cells (entirely inside, yielding true hits) and boundary cells, which are
// refined until their diagonal is at most a user-chosen precision bound ε.
// The merged cell set is stored in an Adaptive Cell Trie (ACT), a radix
// tree over cell-id bits whose lookups cost at most ⌈60/8⌉ = 8 node
// accesses and use only integer arithmetic.
//
// The resulting join semantics:
//
//   - no false negatives: every point inside a polygon is reported;
//   - every reported pair is either certainly inside (a true hit) or within
//     ε meters of the polygon (a candidate hit);
//   - optionally, candidates can be refined with exact geometry
//     (LookupExact), turning the index into a classical filter-and-refine
//     join whose filter is so selective that refinement is rare.
//
// The polygon set is not frozen at build time: Insert and Remove absorb
// live mutations into a small delta layer merged into every lookup, and a
// background compactor folds the delta into a fresh base trie without
// blocking a single reader (see "Mutating a live index" in the README).
//
// # Quick start
//
//	idx, err := act.New(polygons, act.WithPrecision(4))
//	if err != nil { ... }
//	var res act.Result
//	if idx.Lookup(act.LatLng{Lat: 40.7580, Lng: -73.9855}, &res) {
//		// res.True: polygon ids certainly containing the point.
//		// res.Candidates: ids within ε of the point.
//	}
package act

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/core"
	"github.com/actindex/act/internal/cover"
	"github.com/actindex/act/internal/delta"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/geom"
	"github.com/actindex/act/internal/geostore"
	"github.com/actindex/act/internal/grid"
	"github.com/actindex/act/internal/supercover"
	"github.com/actindex/act/internal/wal"
)

// LatLng is a geographic coordinate in degrees.
type LatLng = geo.LatLng

// Polygon is a geographic polygon: an outer ring and optional holes, with
// vertices in degrees. Rings are implicitly closed.
type Polygon = geo.Polygon

// Result receives the polygon ids matched by a lookup. Polygon ids are the
// indices into the slice passed to New (ids assigned by Insert continue the
// sequence). Reuse one Result across lookups to avoid
// allocation.
type Result = core.Result

// Match is one polygon reference of a lookup with its hit class: Exact
// reports a true hit (the point is certainly inside), unset Exact a
// candidate within the precision bound that exact joins refine against real
// geometry.
type Match = core.Match

// GridKind selects the hierarchical grid underlying the index.
type GridKind int

const (
	// PlanarGrid is an equirectangular world grid (the default): one root
	// cell, cells are exact lat/lng rectangles.
	PlanarGrid GridKind = iota
	// CubeFaceGrid is an S2-style cube grid with the quadratic projection:
	// near-uniform cell areas worldwide, but each polygon must fit within
	// a single cube face (city- and region-scale data always does).
	CubeFaceGrid
)

// String implements fmt.Stringer.
func (k GridKind) String() string {
	switch k {
	case PlanarGrid:
		return "planar"
	case CubeFaceGrid:
		return "cubeface"
	default:
		return fmt.Sprintf("GridKind(%d)", int(k))
	}
}

// options is the build configuration the Option functions fill in.
type options struct {
	// PrecisionMeters is the precision bound ε: the maximum distance
	// between the partners of a false-positive join pair. Required.
	PrecisionMeters float64
	// Grid selects the hierarchical grid (default PlanarGrid).
	Grid GridKind
	// Fanout is the trie fanout: 4, 16, 64, or 256 (default 256, the
	// paper's choice).
	Fanout int
	// MaxCellsPerPolygon, when positive, bounds each polygon's covering
	// size. Refinement then happens best-first and the index may deliver
	// only Stats().AchievedPrecisionMeters instead of ε (memory-
	// constrained mode).
	MaxCellsPerPolygon int
	// QuerySamplePoints optionally supplies a sample of observed query
	// points. Combined with MaxCellsPerPolygon it enables adaptive
	// refinement (the paper's §I sketch): the cell budget concentrates
	// where queries actually land, so hot boundary regions reach the
	// precision bound while unqueried regions stay coarse. Ignored
	// without a cell budget.
	QuerySamplePoints []LatLng
	// BuildWorkers bounds the goroutines used to compute per-polygon
	// coverings (default GOMAXPROCS). The covering computation is
	// parallelized over polygons; the super-covering merge is serial,
	// matching the paper's build pipeline.
	BuildWorkers int
	// SkipGeometryStore drops the exact polygon geometry after the covering
	// is built, halving memory for approximate-only deployments. The index
	// then cannot refine candidates: exact joins report ErrNoGeometry, and
	// LookupExact panics with it.
	SkipGeometryStore bool
	// Interleave is the number of concurrent trie walks the batch probe
	// paths keep in flight (0 = auto: 1 for tries up to 48 MiB, 8 beyond;
	// 1 = scalar walks). See WithInterleave.
	Interleave int
	// DeltaThreshold is the pending-mutation count (delta polygons plus
	// tombstones) at which Insert and Remove trigger a background
	// compaction (0 selects the default of 128; negative disables
	// auto-compaction, leaving compaction to explicit Compact calls). See
	// WithDeltaThreshold.
	DeltaThreshold int
	// WAL, when non-nil, attaches a write-ahead delta log: mutations are
	// logged durably before they are acknowledged, and any records left in
	// the log by a previous process are replayed onto the fresh build. See
	// WithWAL.
	WAL *WALConfig
	// Observer, when non-nil, receives the index's observability events —
	// WAL append/fsync/rotation callbacks, compaction runs, and structured
	// log lines. See WithObserver.
	Observer *Observer
}

// BuildStats reports the cost and shape of a built index — the quantities
// of the paper's Table I. After a compaction, Stats reflects the most
// recent base rebuild.
type BuildStats struct {
	NumPolygons  int
	IndexedCells int   // cells in the merged super covering
	TrieBytes    int64 // node arena footprint
	TableBytes   int64 // lookup table footprint
	TrieNodes    int
	// AchievedPrecisionMeters is the worst-case false-positive distance
	// actually delivered; ≤ PrecisionMeters unless a cell budget was set.
	AchievedPrecisionMeters float64
	// CoverDuration is the time to build all individual coverings
	// (parallel); MergeDuration the serial super-covering merge;
	// InsertDuration the trie construction.
	CoverDuration  time.Duration
	MergeDuration  time.Duration
	InsertDuration time.Duration
}

// TotalBytes returns the index memory footprint.
func (s BuildStats) TotalBytes() int64 { return s.TrieBytes + s.TableBytes }

// epoch is one immutable serving state of the index: the base trie and
// geometry with the delta overlay layered on top. Readers load the current
// epoch once per operation (once per request for joins), so every operation
// sees one consistent polygon set; mutations and compactions publish a
// successor epoch through the index's Holder and never touch a published
// one.
type epoch struct {
	trie  *core.Trie
	store *geostore.Store // nil for approximate-only indexes
	ov    *delta.Overlay  // nil when no mutations are pending
	stats BuildStats
}

// Index is a point-in-polygon-set index. It is safe for concurrent use:
// lookups and joins are lock-free, and the polygon set can be mutated under
// live traffic with Insert and Remove — mutations land in a delta layer
// merged into every lookup, folded into the base trie by background
// compaction (see Compact). For replacing the whole index at once, hold it
// in a [Swappable].
type Index struct {
	grid       grid.Grid
	kind       GridKind
	precision  float64
	interleave int
	pl         pipeline // retained build pipeline, reused by Insert/Compact

	// live is the serving epoch, swung atomically by mutations and
	// compaction; its generation counts epoch publications.
	live Holder[*epoch]

	// mu serializes mutations (Insert, Remove, and the bracketing phases
	// of a compaction); readers never take it.
	mu sync.Mutex
	// sources holds the original polygon of every id ever assigned (nil =
	// removed), the input compaction rebuilds from. Nil sources slice =
	// the index carries no rebuild inputs (deserialized or recovered).
	sources []*geo.Polygon
	mutable bool
	// follower marks a replication follower (OpenFollower): internally
	// mutable — ApplyReplicated lands primary records in the overlay and
	// compaction folds them down — but closed to client mutations (Insert
	// and Remove report ErrFollower).
	follower bool
	// promoting is set while Promote converts this follower into a
	// primary; ApplyReplicated rejects batches for the duration so no
	// stale stream record lands after the promotion point. Guarded by mu.
	promoting bool
	// fencedAt is the epoch this index was fenced at (0 = never fenced).
	// Set once by Fence when a higher replication epoch is observed;
	// mutations are rejected with ErrFenced from then on. Atomic so the
	// replication handlers can check it without ix.mu.
	fencedAt atomic.Uint64
	// srcComplete reports that sources holds every live polygon, so
	// compaction reruns the build pipeline over them. True for indexes
	// built in-process; false for indexes resurrected by Recover and for
	// followers, whose base polygons exist only in serialized form —
	// their compactions rebuild from the live epoch (compactEpoch).
	// Guarded by mu alongside sources.
	srcComplete bool
	// alive tracks which assigned ids are currently live — the canonical
	// alive set for every mutable index, maintained even when sources is
	// absent (recovered indexes). len(alive) is the id space. Guarded by
	// mu.
	alive []bool
	// seq numbers mutations; compaction snapshots it to split the overlay
	// into the baked-in part and the residual.
	seq uint64
	// deltaThreshold is the pending-mutation count that triggers
	// background compaction (negative: auto-compaction disabled).
	deltaThreshold int
	// compactMu admits one compaction at a time; maybeCompact TryLocks it
	// so a running compaction suppresses new triggers.
	compactMu   sync.Mutex
	compactions atomic.Uint64
	// liveCount is the number of currently live polygons; idSpace the
	// number of ids ever assigned (= len(sources) for mutable indexes).
	// Atomics so the read paths can size join outputs without ix.mu.
	liveCount atomic.Int64
	idSpace   atomic.Int64

	// mapped is non-nil when the trie is served zero-copy from a file
	// mapping (see OpenIndex); cleanup releases the mapping at GC time if
	// Close is never called.
	mapped  *mapping
	cleanup runtime.Cleanup

	// wal, when non-nil, is the attached write-ahead delta log: every
	// mutation appends its record (and, per the fsync policy, reaches
	// stable storage) before the epoch swings. walRecovered counts the
	// records replayed when the log was attached; snapshotPath is where
	// compactions checkpoint the fresh base (empty: the log is never
	// truncated). All three are set at construction and never mutated.
	wal          *wal.Log
	walRecovered int
	snapshotPath string

	// obs, when non-nil, receives WAL and compaction events (metrics hooks
	// + structured logging). Set at construction, never mutated.
	obs *Observer

	// loadedIDs is the sorted live-id column of the v4 file this index
	// was loaded from (nil for dense files and built indexes); WriteTo
	// re-emits it when an immutable sparse index is re-serialized.
	loadedIDs []uint32
}

// ErrNoPolygons is returned when New is called with no polygons.
var ErrNoPolygons = errors.New("act: no polygons")

// pipeline is the reusable build configuration: everything needed to turn
// polygons into coverings, a trie, and a geometry store. It is built once
// per Index and reused by Insert (one covering) and compaction (a full
// rebuild), so mutated state is always produced by exactly the machinery
// that built the base — the equivalence guarantee rests on that.
type pipeline struct {
	grid     grid.Grid
	coverer  *cover.Coverer
	sample   *cover.QuerySample
	adaptive bool
	maxCells int
	fanout   int
	workers  int
	hasGeom  bool
}

// buildEntry pairs a polygon with its stable id for the shared pipeline.
// Initial builds use dense ids 0..n-1; compactions pass the surviving ids,
// which may have holes.
type buildEntry struct {
	id  uint32
	src *geo.Polygon
}

// cover projects one polygon onto the grid, once, and computes its covering
// with the pipeline's configuration. A pipeline that keeps geometry also
// returns the projection, which is the polygon's exact geometry; otherwise
// the geometry is nil.
func (pl *pipeline) cover(p *geo.Polygon) (*cover.Covering, *geom.Polygon, error) {
	face, poly, err := grid.ProjectPolygon(pl.grid, p)
	if err != nil {
		return nil, nil, err
	}
	var cov *cover.Covering
	if pl.adaptive {
		cov, err = pl.coverer.CoverAdaptive(face, poly, pl.sample, pl.maxCells)
	} else {
		cov, err = pl.coverer.CoverProjected(face, poly)
	}
	if !pl.hasGeom {
		poly = nil
	}
	return cov, poly, err
}

// each calls one(i) for every i in [0, n) from up to pl.workers goroutines —
// inline when one worker suffices. It stops handing out work at the first
// error and once ctx is done, which it checks before every call, and
// returns that error.
func (pl *pipeline) each(ctx context.Context, n int, one func(i int) error) error {
	var next atomic.Int64
	work := func() error {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := one(i); err != nil {
				return err
			}
		}
	}
	workers := min(pl.workers, n)
	if workers <= 1 {
		return work()
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if errs[w] = work(); errs[w] != nil {
				next.Store(int64(n)) // the others stop at their next index
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run executes the full build pipeline over the entries: parallel
// per-polygon coverings, the serial super-covering merge, trie
// construction, and (when the pipeline keeps geometry) a sparse geometry
// store with idSpace slots. The context is checked before every covering
// and between phases, so a cancelled compaction stops within one covering
// without publishing anything.
func (pl *pipeline) run(ctx context.Context, entries []buildEntry, idSpace int) (*core.Trie, *geostore.Store, BuildStats, error) {
	var stats BuildStats
	stats.NumPolygons = len(entries)

	// Phase 1: individual coverings, parallelized over entries. The exact
	// geometry is id-indexed over the whole id space; entries not present
	// (removed ids) stay nil.
	start := time.Now()
	covs := make([]*cover.Covering, len(entries))
	projected := make([]*geom.Polygon, idSpace)
	err := pl.each(ctx, len(entries), func(i int) (err error) {
		e := entries[i]
		if covs[i], projected[e.id], err = pl.cover(e.src); err != nil {
			return fmt.Errorf("act: covering polygon %d: %w", e.id, err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, stats, err
	}
	for _, cov := range covs {
		stats.AchievedPrecisionMeters = max(stats.AchievedPrecisionMeters, cov.AchievedPrecisionMeters)
	}
	stats.CoverDuration = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, nil, stats, err
	}

	// Phase 2: serial super-covering merge.
	start = time.Now()
	var scb supercover.Builder
	for i, cov := range covs {
		if err := scb.Add(entries[i].id, cov); err != nil {
			return nil, nil, stats, fmt.Errorf("act: merging polygon %d: %w", entries[i].id, err)
		}
	}
	sc := scb.Build()
	stats.MergeDuration = time.Since(start)
	stats.IndexedCells = sc.NumCells()
	if err := ctx.Err(); err != nil {
		return nil, nil, stats, err
	}

	// Phase 3: trie construction.
	start = time.Now()
	trie, err := core.Build(sc, core.Config{Fanout: pl.fanout})
	if err != nil {
		return nil, nil, stats, err
	}
	stats.InsertDuration = time.Since(start)

	// Exact geometry for candidate refinement, unless the caller opted
	// out.
	var store *geostore.Store
	if pl.hasGeom {
		store = geostore.NewSparse(projected)
	}

	ts := trie.ComputeStats()
	stats.TrieBytes = ts.TrieBytes
	stats.TableBytes = ts.TableBytes
	stats.TrieNodes = ts.NumNodes
	return trie, store, stats, nil
}

// defaultDeltaThreshold is the pending-mutation count that triggers
// background compaction when WithDeltaThreshold was not given.
const defaultDeltaThreshold = 128

// New builds an index over the polygon set, configured by functional
// options: it computes polygon coverings with the requested precision,
// merges them, and loads them into an Adaptive Cell Trie.
//
//	idx, err := act.New(polygons,
//		act.WithPrecision(4),
//		act.WithGrid(act.CubeFaceGrid),
//		act.WithFanout(256))
//
// Polygon ids in lookup results are indices into polygons.
//
// The index retains the polygons (the pointers, not copies) as the source
// set live mutation rebuilds from — see [Index.Insert] and [Index.Compact];
// callers should not modify them after the build. Indexes loaded with
// ReadIndex carry no sources and are immutable.
func New(polygons []*Polygon, opts ...Option) (*Index, error) {
	o := applyOptions(opts)
	if len(polygons) == 0 {
		return nil, ErrNoPolygons
	}
	if len(polygons) > supercover.MaxPolygonID+1 {
		return nil, fmt.Errorf("act: %d polygons exceed the 2^30 id space", len(polygons))
	}
	var g grid.Grid
	switch o.Grid {
	case PlanarGrid:
		g = grid.NewPlanar()
	case CubeFaceGrid:
		g = grid.NewCubeFace()
	default:
		return nil, fmt.Errorf("act: unknown grid kind %v", o.Grid)
	}
	fanout := o.Fanout
	if fanout == 0 {
		fanout = 256
	}
	adaptive := o.MaxCellsPerPolygon > 0 && len(o.QuerySamplePoints) > 0
	var coverOpts []cover.Option
	if o.MaxCellsPerPolygon > 0 && !adaptive {
		coverOpts = append(coverOpts, cover.WithMaxCells(o.MaxCellsPerPolygon))
	}
	coverer, err := cover.NewCoverer(g, o.PrecisionMeters, coverOpts...)
	if err != nil {
		return nil, err
	}
	var sample *cover.QuerySample
	if adaptive {
		sample = cover.NewQuerySample(g, o.QuerySamplePoints)
	}
	workers := o.BuildWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pl := pipeline{
		grid:     g,
		coverer:  coverer,
		sample:   sample,
		adaptive: adaptive,
		maxCells: o.MaxCellsPerPolygon,
		fanout:   fanout,
		workers:  workers,
		hasGeom:  !o.SkipGeometryStore,
	}

	entries := make([]buildEntry, len(polygons))
	for i, p := range polygons {
		entries[i] = buildEntry{id: uint32(i), src: p}
	}
	trie, store, stats, err := pl.run(context.Background(), entries, len(polygons))
	if err != nil {
		return nil, err
	}

	threshold := o.DeltaThreshold
	if threshold == 0 {
		threshold = defaultDeltaThreshold
	}
	ix := &Index{
		grid:           g,
		kind:           o.Grid,
		precision:      o.PrecisionMeters,
		interleave:     o.Interleave,
		pl:             pl,
		mutable:        true,
		srcComplete:    true,
		deltaThreshold: threshold,
		obs:            o.Observer,
	}
	// Retain the caller's polygons (pointers, not copies) as the source of
	// truth compaction rebuilds from; the slice itself is cloned so a
	// caller appending to theirs cannot race the mutation layer.
	ix.sources = make([]*geo.Polygon, len(polygons))
	copy(ix.sources, polygons)
	ix.alive = make([]bool, len(polygons))
	for i := range ix.alive {
		ix.alive[i] = true
	}
	ix.liveCount.Store(int64(len(polygons)))
	ix.idSpace.Store(int64(len(polygons)))
	ix.live.Swap(&epoch{trie: trie, store: store, stats: stats})
	if o.WAL != nil {
		if err := ix.attachWAL(*o.WAL); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// Lookup performs the approximate join for one point: res.True receives the
// ids of polygons certainly containing the point, res.Candidates the ids of
// polygons whose distance to the point is at most the precision bound. It
// reports whether anything matched. res is reset first. On a mutated index
// the result merges the base trie with the delta layer: removed polygons
// are filtered out and inserted polygons' references appended.
func (ix *Index) Lookup(ll LatLng, res *Result) bool {
	defer ix.keepMapped()
	res.Reset()
	ep := ix.live.Load()
	leaf := grid.LeafCell(ix.grid, ll)
	hit := ep.trie.Lookup(leaf, res)
	if ep.ov != nil {
		hit = ep.ov.Merge(leaf, res)
	}
	return hit
}

// LookupExact behaves like Lookup but refines every candidate with a robust
// point-in-polygon test against the geometry store, moving confirmed
// candidates into res.True and dropping the rest. After LookupExact,
// res.Candidates is always empty and res.True holds exactly the polygons
// containing the point (boundary points count as inside: the closed-polygon
// convention). Like the other exact entry points, it refuses to run on an
// index without a geometry store: it panics with ErrNoGeometry, because an
// unrefined result would silently violate the exactness postcondition.
// Check HasGeometry first when the index's provenance is uncertain.
func (ix *Index) LookupExact(ll LatLng, res *Result) bool {
	defer ix.keepMapped()
	res.Reset()
	ep := ix.live.Load()
	if ep.store == nil {
		panic(ErrNoGeometry)
	}
	leaf := grid.LeafCell(ix.grid, ll)
	hit := ep.trie.Lookup(leaf, res)
	if ep.ov != nil {
		hit = ep.ov.Merge(leaf, res)
	}
	if !hit {
		return false
	}
	_, pt := ix.grid.Project(ll)
	res.True = ep.ov.Resolve(ep.store, pt, res.Candidates, res.True)
	res.Candidates = res.Candidates[:0]
	return len(res.True) > 0
}

// AppendRefs appends every polygon reference matching the point to dst —
// true hits with Match.Exact set, candidates without — and returns the
// extended slice. It allocates nothing with a reused dst, so hot paths can
// keep the true-hit/candidate distinction without paying for a Result.
func (ix *Index) AppendRefs(ll LatLng, dst []Match) []Match {
	defer ix.keepMapped()
	ep := ix.live.Load()
	leaf := grid.LeafCell(ix.grid, ll)
	n := len(dst)
	dst = ep.trie.AppendRefs(leaf, dst)
	if ep.ov != nil {
		dst = ep.ov.MergeRefs(leaf, dst, n)
	}
	return dst
}

// Contains reports whether the point is (exactly) inside the polygon with
// the given id, under the closed-polygon convention (boundary points are
// inside). It requires the geometry store; without one it reports false,
// as it does for removed or unknown ids.
func (ix *Index) Contains(ll LatLng, polygonID uint32) bool {
	ep := ix.live.Load()
	if ep.store == nil {
		return false
	}
	_, pt := ix.grid.Project(ll)
	return ep.ov.Contains(ep.store, polygonID, pt)
}

// HasGeometry reports whether the index carries the exact polygon geometry
// needed to refine candidates. Indexes built with WithGeometryStore(false)
// and index files saved without a geometry section serve approximate
// lookups only.
func (ix *Index) HasGeometry() bool { return ix.live.Load().store != nil }

// PrecisionMeters returns the configured precision bound ε.
func (ix *Index) PrecisionMeters() float64 { return ix.precision }

// NumPolygons returns the number of live polygons: polygons indexed at
// build time, plus Inserts, minus Removes.
func (ix *Index) NumPolygons() int { return int(ix.liveCount.Load()) }

// idSpaceSize returns the number of polygon ids ever assigned — the size
// joins use for id-indexed outputs. Removed ids stay allocated (and their
// slots zero) so ids remain stable across mutations and compactions.
func (ix *Index) idSpaceSize() int { return int(ix.idSpace.Load()) }

// Stats returns build statistics (Table I quantities) for the current base
// trie — the initial build's, until a compaction replaces the base.
func (ix *Index) Stats() BuildStats { return ix.live.Load().stats }

// GridName returns the name of the underlying grid.
func (ix *Index) GridName() string { return ix.grid.Name() }

// GridKind returns the kind of the underlying grid, as selected at build
// time (and persisted across WriteTo/ReadIndex).
func (ix *Index) GridKind() GridKind { return ix.kind }

// CellLevelForPrecision returns the shallowest grid level whose cells near
// the given latitude have a diagonal of at most meters — useful to estimate
// index depth before building.
func (ix *Index) CellLevelForPrecision(meters float64, atLat float64) int {
	ll := LatLng{Lat: atLat, Lng: 0}
	for level := 0; level <= cellid.MaxLevel; level++ {
		c := grid.PointToCell(ix.grid, ll, level)
		if grid.CellDiagonalMeters(ix.grid, c) <= meters {
			return level
		}
	}
	return cellid.MaxLevel
}
