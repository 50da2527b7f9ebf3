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
//   - optionally, candidates can be refined with exact geometry (the
//     Exact mode of Lookup and the joins), turning the index into a
//     classical filter-and-refine join whose filter is so selective that
//     refinement is rare. Every exact read on an index without a geometry
//     store reports ErrNoGeometry.
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
//	if hit, _ := idx.Lookup(act.LatLng{Lat: 40.7580, Lng: -73.9855}, act.Approximate, &res); hit {
//		// res.True: polygon ids certainly containing the point.
//		// res.Candidates: ids within ε of the point.
//	}
package act

import (
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
	"github.com/actindex/act/internal/fault"
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
type Match struct {
	ID    uint32
	Exact bool
}

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

// options is the build configuration the Option functions fill in; each
// field is documented once, on the With function that sets it (options.go).
type options struct {
	PrecisionMeters   float64 // ε; required
	Grid              GridKind
	Fanout            int // 0 = 256
	SkipGeometryStore bool
	DeltaThreshold    int // 0 = defaultDeltaThreshold, negative = never
	WAL               *WALConfig
	Observer          *Observer
}

// BuildStats reports the cost and shape of a built index — the quantities
// of the paper's Table I. After a compaction, Status().Build reflects the most
// recent base rebuild.
type BuildStats struct {
	NumPolygons  int
	IndexedCells int   // cells in the merged super covering
	TrieBytes    int64 // node arena footprint
	TableBytes   int64 // lookup table footprint
	TrieNodes    int
	// AchievedPrecisionMeters is the worst-case false-positive distance
	// actually delivered, always ≤ PrecisionMeters. After a compaction it
	// is an upper bound: the worst polygon may have been removed since.
	AchievedPrecisionMeters float64
	// CoverDuration is the time New takes to project the polygons onto the
	// grid (parallel); a compaction covers nothing.
	//
	// MergeDuration is a compaction's serial sort of the live delta
	// coverings; New merges nothing apart from the covering, so it is zero
	// there.
	//
	// InsertDuration is the trie's construction together with what feeds
	// it: in New the one descent that covers every polygon and hands each
	// merged cell straight to the trie builder, in a compaction the base
	// trie's cells streamed through the merge with the sorted delta into
	// the trie builder.
	CoverDuration  time.Duration
	MergeDuration  time.Duration
	InsertDuration time.Duration
}

// TotalBytes returns the index memory footprint.
func (s BuildStats) TotalBytes() int64 { return s.TrieBytes + s.TableBytes }

// epoch is one immutable state of the index: the base trie and geometry with
// the delta overlay layered on top, and the id set and mutation sequence they
// serve. Readers and serializers load the current epoch once per operation
// (once per request for joins), so every operation sees one consistent
// polygon set without a lock; mutations and compactions publish a successor
// epoch through the index's Holder and never touch a published one.
type epoch struct {
	trie  *core.Trie
	store *geostore.Store // nil for approximate-only indexes
	ov    *delta.Overlay  // nil when no mutations are pending
	stats BuildStats
	// alive marks the live polygon ids; len(alive) is the id space (ids are
	// never reused, so removed ids stay as false slots, and alive is the one
	// record of every removal). live counts the true slots, removed the
	// removals since the base trie was built, seq is the last mutation
	// applied, compactions counts the compactions over the index's lifetime.
	alive       []bool
	live        int
	removed     int
	seq         uint64
	compactions uint64
}

// liveFilter returns the live-id set the overlay filters references
// through: nil while nothing was removed since the base, when neither the
// base trie nor the overlay references a removed id.
func (ep *epoch) liveFilter() []bool {
	if ep.removed == 0 {
		return nil
	}
	return ep.alive
}

// firstDelta returns the first id the overlay serves: the inserts since the
// base carry the consecutive ids at the end of the id space.
func (ep *epoch) firstDelta() int {
	return len(ep.alive) - ep.ov.NumPolygons()
}

// idColumn returns the id column a file of ep carries: none while the id
// space is dense, the live ids, ascending, once removals have left holes.
func (ep *epoch) idColumn() []uint32 {
	if ep.live == len(ep.alive) {
		return nil
	}
	ids := make([]uint32, 0, ep.live)
	for id, a := range ep.alive {
		if a {
			ids = append(ids, uint32(id))
		}
	}
	return ids
}

// denseAlive returns the alive set of n ids that are all live.
func denseAlive(n int) []bool {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	return alive
}

// role is what an index takes writes from.
type role uint8

const (
	// readOnly: loaded with ReadIndex or OpenIndex; nothing mutates it.
	readOnly role = iota
	// primary: built by New or resurrected by Recover (or promoted);
	// Insert and Remove mutate it.
	primary
	// follower: OpenFollower; ApplyReplicated lands the primary's records
	// and compaction folds them down, client mutations report ErrFollower.
	follower
	// promoting: a follower inside Promote; it still reports as a follower,
	// and ApplyReplicated rejects batches so no stale stream record lands
	// after the promotion point.
	promoting
)

// roleState is an index's role together with the log it writes to. It is set
// at construction and replaced whole, under ix.mu, by Promote; everything
// else loads it atomically.
type roleState struct {
	role role
	// wal, when non-nil, is the attached write-ahead delta log: every
	// mutation appends its record (and, per the fsync policy, reaches
	// stable storage) before the epoch swings. walRecovered counts the
	// records replayed when it was attached.
	wal          *wal.Log
	walRecovered int
	// snapshotPath is where compactions checkpoint the fresh base (empty:
	// the log is never truncated); fs is the filesystem the log and the
	// snapshot go through (nil: the OS).
	snapshotPath string
	fs           fault.VFS
}

// Index is a point-in-polygon-set index. It is safe for concurrent use:
// lookups and joins are lock-free, and the polygon set can be mutated under
// live traffic with Insert and Remove — mutations land in a delta layer
// merged into every lookup, folded into the base trie by background
// compaction (see Compact). For replacing the whole index at once, hold it
// in a [Swappable].
type Index struct {
	kind GridKind
	pl   pipeline // the grid and ε: covers inserts, builds compacted tries

	// live is the index's state, swung atomically by mutations and
	// compaction; its generation counts epoch publications.
	live Holder[*epoch]
	// rs is the role and its log.
	rs atomic.Pointer[roleState]

	// mu serializes mutations (Insert, Remove, and the bracketing phases
	// of a compaction) and role changes; readers never take it.
	mu sync.Mutex
	// compactMu admits one compaction at a time; maybeCompact TryLocks it
	// so a running compaction suppresses new triggers.
	compactMu sync.Mutex
	// fencedAt is the epoch this index was fenced at (0 = never fenced).
	// Set once by Fence when a higher replication epoch is observed;
	// mutations are rejected with ErrFenced from then on. Atomic so the
	// replication handlers can check it without ix.mu.
	fencedAt atomic.Uint64

	// deltaThreshold is the pending-mutation count that triggers
	// background compaction (negative: auto-compaction disabled); obs, when
	// non-nil, receives WAL and compaction events. Both are set at
	// construction, never mutated.
	deltaThreshold int
	obs            *Observer

	// spare keeps the Result AppendRefs looks up into between calls: a
	// call takes it, or makes its own while another call holds it. (A
	// sync.Pool drops items at random under the race detector, where
	// AppendRefs would then allocate.)
	spare atomic.Pointer[Result]

	// mapped is the file mapping OpenIndex aliased the loaded trie over,
	// held until Close even once a compaction has replaced that trie (see
	// Status.Mapped); cleanup releases it at GC time if Close is never called.
	mapped  *mapping
	cleanup runtime.Cleanup
}

// newIndex is the one constructor of an Index, built or loaded alike: a
// read-only index serving ep. New, Recover and OpenFollower then give it its
// options and role (setRole).
func newIndex(kind GridKind, pl pipeline, ep *epoch) *Index {
	ix := &Index{kind: kind, pl: pl, deltaThreshold: defaultDeltaThreshold}
	ix.rs.Store(&roleState{})
	ix.live.Swap(ep)
	return ix
}

// setRole gives a freshly constructed index its role and the options that
// apply to every writable one: the compaction threshold and the observer.
func (ix *Index) setRole(r role, o options) {
	if o.DeltaThreshold != 0 {
		ix.deltaThreshold = o.DeltaThreshold
	}
	ix.obs = o.Observer
	ix.rs.Store(&roleState{role: r})
}

// ErrNoPolygons is returned when New is called with no polygons.
var ErrNoPolygons = errors.New("act: no polygons")

// pipeline is the reusable build configuration: everything needed to turn
// polygons into coverings, a trie, and a geometry store. It is built once
// per Index and reused by Insert and record application (one covering
// each), so delta coverings are produced by exactly the machinery that
// built the base — the equivalence guarantee rests on that.
type pipeline struct {
	grid    grid.Grid
	coverer *cover.Coverer
	fanout  int
	hasGeom bool
}

// newPipeline is the one constructor of a pipeline, for New and for every
// index loaded from a file alike: a covering depends on the grid and ε
// alone, both persisted with the fanout, so a recovered index or a follower
// covers an insert exactly as the index that wrote the file would have.
func newPipeline(kind GridKind, precision float64, fanout int, hasGeom bool) (pipeline, error) {
	var g grid.Grid
	switch kind {
	case PlanarGrid:
		g = grid.NewPlanar()
	case CubeFaceGrid:
		g = grid.NewCubeFace()
	default:
		return pipeline{}, fmt.Errorf("act: unknown grid kind %v", kind)
	}
	coverer, err := cover.NewCoverer(g, precision)
	if err != nil {
		return pipeline{}, err
	}
	return pipeline{grid: g, coverer: coverer, fanout: fanout, hasGeom: hasGeom}, nil
}

// cover projects one polygon onto the grid, once, and computes its covering
// with the pipeline's configuration. It also returns the face the polygon
// was projected onto and the projection, which is the polygon's exact
// geometry.
func (pl *pipeline) cover(p *geo.Polygon) (*cover.Covering, int, *geom.Polygon, error) {
	face, poly, err := grid.ProjectPolygon(pl.grid, p)
	if err != nil {
		return nil, 0, nil, err
	}
	cov, err := pl.coverer.CoverProjected(face, poly)
	return cov, face, poly, err
}

// each calls one(i) for every i in [0, n) from up to GOMAXPROCS goroutines —
// inline when one worker suffices. It stops handing out work at the first
// error and returns it.
func each(n int, one func(i int) error) error {
	var next atomic.Int64
	work := func() error {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return nil
			}
			if err := one(i); err != nil {
				return err
			}
		}
	}
	workers := min(runtime.GOMAXPROCS(0), n)
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

// run executes the full build pipeline over the polygons, whose ids are
// their indices (all live): the polygons' projections onto the grid, one
// descent that covers them all and streams the merged cells into trie
// construction, and (when the pipeline keeps geometry) the geometry store.
func (pl *pipeline) run(polygons []*geo.Polygon) (*epoch, error) {
	stats := BuildStats{NumPolygons: len(polygons)}
	start := time.Now()
	shapes := make([]cover.Shape, len(polygons))
	err := each(len(polygons), func(i int) error {
		face, poly, err := grid.ProjectPolygon(pl.grid, polygons[i])
		if err != nil {
			return fmt.Errorf("act: covering polygon %d: %w", i, err)
		}
		shapes[i] = cover.Shape{Face: face, Poly: poly, ID: uint32(i)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	stats.CoverDuration = time.Since(start)
	// One descent of the grid covers the shapes and merges their coverings
	// (cover.Coverer.Descend), streamed into the trie builder.
	descent := func(cell func(cellid.ID, []supercover.Ref) error) (err error) {
		stats.IndexedCells, stats.AchievedPrecisionMeters, err = pl.coverer.Descend(shapes, cell)
		return err
	}
	trie, err := pl.build(descent, nil, &stats)
	if err != nil {
		return nil, err
	}
	var store *geostore.Store
	if pl.hasGeom {
		projected := make([]*geom.Polygon, len(shapes))
		faces := make([]uint8, len(shapes))
		for i, s := range shapes {
			projected[i], faces[i] = s.Poly, uint8(s.Face)
		}
		store = geostore.NewSparse(projected, faces)
	}
	return &epoch{trie: trie, store: store, stats: stats, alive: denseAlive(len(polygons)), live: len(polygons)}, nil
}

// build streams a prefix-free covering straight into the Adaptive Cell Trie
// builder (core.BuildStream) and records the cost and the shape in stats:
// New's covering from the descent, a compaction's from the merge of its base
// and delta, which sizes the builder's arena like that base.
func (pl *pipeline) build(s core.Stream, like *core.Trie, stats *BuildStats) (*core.Trie, error) {
	start := time.Now()
	trie, err := core.BuildStream(s, like, core.Config{Fanout: pl.fanout})
	if err != nil {
		return nil, fmt.Errorf("act: %w", err)
	}
	stats.InsertDuration = time.Since(start)
	stats.TrieNodes, stats.TrieBytes, stats.TableBytes = trie.Size()
	return trie, nil
}

// defaultDeltaThreshold is the pending-mutation count that triggers
// background compaction when WithDeltaThreshold was not given.
const defaultDeltaThreshold = 128

// New builds an index over the polygon set, configured by functional
// options: it covers the polygons with the requested precision, merging
// their coverings as it goes, and loads them into an Adaptive Cell Trie.
//
//	idx, err := act.New(polygons,
//		act.WithPrecision(4),
//		act.WithGrid(act.CubeFaceGrid),
//		act.WithFanout(256))
//
// Polygon ids in lookup results are indices into polygons. The index keeps
// the coverings' cells and the projected geometry, not the polygons: the
// caller's slice is free once New returns, and live mutation compacts from
// the served cells — see [Index.Insert] and [Index.Compact].
func New(polygons []*Polygon, opts ...Option) (*Index, error) {
	o := applyOptions(opts)
	if len(polygons) == 0 {
		return nil, ErrNoPolygons
	}
	if len(polygons) > supercover.MaxPolygonID+1 {
		return nil, fmt.Errorf("act: %d polygons exceed the 2^30 id space", len(polygons))
	}
	fanout := o.Fanout
	if fanout == 0 {
		fanout = 256
	}
	pl, err := newPipeline(o.Grid, o.PrecisionMeters, fanout, !o.SkipGeometryStore)
	if err != nil {
		return nil, err
	}
	ep, err := pl.run(polygons)
	if err != nil {
		return nil, err
	}
	ix := newIndex(o.Grid, pl, ep)
	ix.setRole(primary, o)
	if o.WAL != nil {
		if err := ix.attachWAL(*o.WAL); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// Lookup answers the join for one point in the given mode and reports
// whether anything matched; res is reset first. In Approximate mode
// res.True receives the ids of polygons certainly containing the point,
// res.Candidates the ids of polygons whose distance to the point is at most
// the precision bound. In Exact mode every candidate is refined with a
// robust point-in-polygon test against the geometry store: res.True then
// holds exactly the polygons containing the point (boundary points count as
// inside: the closed-polygon convention) and res.Candidates is empty. Exact
// mode on an index without a geometry store reports ErrNoGeometry without
// probing. On a mutated index the result merges the base trie with the
// delta layer: removed polygons are filtered out and inserted polygons'
// references appended.
func (ix *Index) Lookup(ll LatLng, mode JoinMode, res *Result) (bool, error) {
	defer ix.keepMapped()
	res.Reset()
	ep := ix.live.Load()
	if mode == Exact && ep.store == nil {
		return false, ErrNoGeometry
	}
	leaf := grid.LeafCell(ix.pl.grid, ll)
	hit := ep.trie.Lookup(leaf, res)
	if ep.ov != nil {
		hit = ep.ov.Merge(leaf, res)
	}
	if mode != Exact || !hit {
		return hit, nil
	}
	_, pt := ix.pl.grid.Project(ll)
	res.True = ep.store.Resolve(pt, res.Candidates, res.True)
	res.Candidates = res.Candidates[:0]
	return len(res.True) > 0, nil
}

// AppendRefs appends every polygon reference matching the point to dst —
// the true hits with Match.Exact set, then the candidates without — and
// returns the extended slice. It is Lookup in Approximate mode into a kept
// Result, so it allocates nothing with a reused dst.
//
// Deprecated: use Lookup with a reused Result, whose True and Candidates
// carry the same split.
func (ix *Index) AppendRefs(ll LatLng, dst []Match) []Match {
	res := ix.spare.Swap(nil)
	if res == nil {
		res = new(Result)
	}
	defer ix.spare.Store(res)
	ix.Lookup(ll, Approximate, res) // an approximate lookup reports no error
	for _, id := range res.True {
		dst = append(dst, Match{ID: id, Exact: true})
	}
	for _, id := range res.Candidates {
		dst = append(dst, Match{ID: id})
	}
	return dst
}

// PrecisionMeters returns the configured precision bound ε.
func (ix *Index) PrecisionMeters() float64 { return ix.pl.coverer.PrecisionMeters() }

// GridKind returns the kind of the underlying grid, as selected at build
// time (and persisted across WriteTo/ReadIndex).
func (ix *Index) GridKind() GridKind { return ix.kind }

// CellLevelForPrecision returns the shallowest grid level whose cells near
// the given latitude have a diagonal of at most meters — useful to estimate
// index depth before building.
func (ix *Index) CellLevelForPrecision(meters float64, atLat float64) int {
	ll := LatLng{Lat: atLat, Lng: 0}
	for level := 0; level <= cellid.MaxLevel; level++ {
		c := grid.PointToCell(ix.pl.grid, ll, level)
		if grid.CellDiagonalMeters(ix.pl.grid, c) <= meters {
			return level
		}
	}
	return cellid.MaxLevel
}
