package core

import "github.com/actindex/act/internal/cellid"

// Interleaved batch probing.
//
// A single trie walk is a chain of dependent loads: the address of node d+1
// is not known until the entry of node d arrives, so the CPU cannot overlap
// the cache misses and a probe costs depth × miss-latency (the paper's cost
// model c_avg = ⌈k_avg/log2(f)⌉ × node-access cost, §II). Interleaving runs
// K probes ("lanes") at once and advances every lane by exactly one node per
// round; the K loads of a round belong to different probes, carry no data
// dependencies, and therefore overlap in the memory subsystem — converting
// the serial miss chain into memory-level parallelism (group prefetching /
// AMAC-style chained walks).
//
// The round loop is deliberately branchless. A per-lane advance-or-terminate
// branch looks harmless, but under interleaving its outcome sequence is the
// shuffle of K independent walks — effectively random — and every
// misprediction flushes the speculated loads of the lanes behind it, capping
// the very memory-level parallelism the lanes exist to create. Instead, each
// round classifies the loaded entry with mask arithmetic: a child advances
// the lane, a terminal parks the lane on the sentinel node (the arena's
// first node, key 0) and ORs the entry into the lane's result. Parked lanes
// keep issuing sentinel loads — L1 hits, a few cycles — and the sentinel's
// zero entry ORs nothing, so the result accumulates the terminal entry
// exactly once. Probes
// are processed in groups of K; a group ends when every lane is parked (the
// round loop's only branch, taken a handful of predictable times), then
// results are decoded and emitted in input order, preserving the engine's
// emit-order contract and the true-hit/candidate split bit-for-bit relative
// to the scalar paths.

const (
	// InterleaveAuto asks InterleaveWidth to pick the lane count from the
	// trie's memory footprint.
	InterleaveAuto = 0
	// MaxInterleave caps the lane count. The reorder window of mainstream
	// cores holds roughly this many rounds' worth of walk instructions;
	// lanes beyond it cannot add outstanding misses, only lane state.
	MaxInterleave = 64
	// interleaveMinBytes is the footprint above which auto interleaves. The
	// engine probes cell-sorted chunks, and on a compressed trie the sorted
	// scalar walk — which resumes at the deepest node shared with the
	// previous probe — touches so few new lines that lanes mostly add
	// bookkeeping. Measured on the reference host over run-compressed nodes
	// (2 M uniform points over census blocks, ns/point, scalar vs 8 lanes;
	// footprints then → now, palette-coded): the benchmark's own join
	// workloads, core.probe_sorted_ns_per_point vs
	// core.probe_interleaved_ns_per_point, 22.0 vs 35.7 at 1.6 → 0.63 MB
	// (join_boundary_exact) and 23.6 vs 34.3 at 5.1 → 2.3 MB
	// (join_uniform); at 27.8 → 23.9 MB (ε = 30 m) 51 vs 53 in 64 Ki chunks
	// and 61 vs 64 in 4 Ki chunks; at 37.7 → 31.2 MB (ε = 15 m) 40 vs 52 and
	// 65 vs 66; at 64.1 → 52.9 MB (12 000 blocks, ε = 15 m) 56 vs 65 in
	// 64 Ki chunks but 90 vs 85 in 4 Ki and 84 vs 80 in 16 Ki chunks — the
	// first size at which lanes won anything. The threshold sat between the
	// last two and stays: no tracked workload comes near it either way, and
	// the 12 000-block map, though smaller now, is still above it (52.9 MB
	// against 50.3). (Probes in arrival order favour lanes from 5 MB up, 69
	// vs 48, but no caller sends any; so does a sorted 256-point batch on
	// evicted caches, 324 vs 251 at 5 MB — 19 µs of a 700 µs /join request,
	// and serve_read's join_req_p50_us did not tell the two settings apart.)
	interleaveMinBytes = 48 << 20
	// interleaveAutoWidth is the lane count auto selects for tries beyond
	// interleaveMinBytes: wide enough to cover a round's misses on cores with ~10–16 line
	// fill buffers, small enough that a round always fits the reorder
	// window.
	interleaveAutoWidth = 8
)

// MemoryBytes returns the trie's resident footprint: node arena plus lookup
// table.
func (t *Trie) MemoryBytes() int64 {
	return int64(len(t.nodes))*8 + int64(len(t.table))*4
}

// InterleaveWidth resolves a requested interleave width: positive widths are
// clamped to MaxInterleave, and InterleaveAuto (0) selects 1 for tries up to
// interleaveMinBytes — where the sorted scalar walk rarely misses and lane
// bookkeeping is pure overhead — and interleaveAutoWidth lanes otherwise.
func (t *Trie) InterleaveWidth(requested int) int {
	switch {
	case requested > MaxInterleave:
		return MaxInterleave
	case requested > 0:
		return requested
	case t.MemoryBytes() <= interleaveMinBytes:
		return 1
	default:
		return interleaveAutoWidth
	}
}

// BatchScratch is the reusable per-caller scratch of LookupBatchInterleaved.
// The walk state is small enough to live in stack arrays inside the call,
// so the struct currently carries nothing; it is kept in the signature so
// growing the engine (wider batches, per-lane statistics) never has to
// touch every call site again. The zero value is ready to use.
type BatchScratch struct{}

// isNonZero returns 1 if x != 0, else 0, without a branch.
func isNonZero(x uint64) uint64 { return (x | -x) >> 63 }

// LookupBatchInterleaved performs one Lookup per leaf cell like LookupBatch
// — emit(i, hit) is invoked once per leaf in input order with res holding
// leaf i's references — but keeps width independent walks in flight so their
// node loads overlap in the memory subsystem instead of serializing on cache
// misses. width ≤ 1 (or a batch smaller than two lanes) falls back to the
// scalar LookupBatch and its shared-prefix resumption; pass InterleaveAuto
// to let the trie pick. Results are bit-identical to scalar Lookup for every
// width and input order.
func (t *Trie) LookupBatchInterleaved(leaves []cellid.ID, width int, bs *BatchScratch, res *Result, emit func(i int, hit bool)) {
	if width > len(leaves) {
		width = len(leaves)
	}
	if width <= 1 {
		t.LookupBatch(leaves, res, emit)
		return
	}
	if width > MaxInterleave {
		width = MaxInterleave
	}
	nodes, kbits, sentinel := t.nodes, t.bits, t.sentinel()
	roots, rootSkip, rootPrefix := t.roots, t.rootSkip, t.rootPrefix

	// Lane state in fixed stack arrays, indexed with a masked lane number
	// so every touch is bounds-check-free.
	const lmask = MaxInterleave - 1
	var (
		cur  [MaxInterleave]uint64 // child entry of the current node; sentinel = parked
		key  [MaxInterleave]uint64 // remaining key bits, top-aligned
		term [MaxInterleave]uint64 // accumulated terminal entry
	)
	for base := 0; base < len(leaves); base += width {
		group := min(width, len(leaves)-base)
		// Prime the group's lanes. Leaves with no walk to run (empty face,
		// root-prefix mismatch) park immediately with a zero result: the
		// mask arithmetic funnels them through the same rounds as real
		// misses, keeping this loop branchless too.
		for j := 0; j < group; j++ {
			m := j & lmask
			leaf := leaves[base+j]
			face := leaf.Face()
			root := roots[face]
			k := leaf.PathBits() << 4
			live := -(isNonZero(root) &^ isNonZero((k^rootPrefix[face])>>(64-rootSkip[face])))
			cur[m] = root&live | sentinel&^live
			key[m] = (k << rootSkip[face]) & live
			term[m] = 0
		}
		// Rounds: every lane takes exactly one node access. A child entry
		// advances the lane; anything else (a value entry, or the parked
		// sentinel's zero) parks it back on the sentinel and ORs into the
		// lane's terminal accumulator — which collects the real terminal
		// exactly once, because parked loads contribute zero.
		for {
			advancing := uint64(0)
			for j := 0; j < group; j++ {
				m := j & lmask
				k := key[m]
				entry := entryAt(nodes, cur[m], k>>(64-kbits))
				child := -(isNonZero(entry) &^ isNonZero(entry&tagMask))
				cur[m] = entry&child | sentinel&^child
				key[m] = (k << kbits) & child
				term[m] |= entry &^ child
				advancing |= child
			}
			if advancing == 0 {
				break
			}
		}
		// Decode and emit the group in input order.
		for j := 0; j < group; j++ {
			entry := term[j&lmask]
			res.Reset()
			switch entry & tagMask {
			case tagChild: // only zero carries this tag here: false hit
				emit(base+j, false)
			case tagOne:
				res.addPayload(uint32(entry >> 2))
				emit(base+j, true)
			case tagTwo:
				res.addPayload(uint32(entry >> 2 & payloadMax))
				res.addPayload(uint32(entry >> 33))
				emit(base+j, true)
			default: // tagOffset
				t.readTable(uint32(entry>>2), res)
				emit(base+j, true)
			}
		}
	}
}
