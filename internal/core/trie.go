// Package core implements the Adaptive Cell Trie (ACT), the paper's central
// contribution: a specialized in-memory radix tree over hierarchical grid
// cell ids that answers point-in-polygon-set queries with a handful of
// cache-line accesses and no comparisons.
//
// Structure (paper §II, Figure 2):
//
//   - every node has `fanout` logical slots, each a tagged 8-byte entry; the
//     default fanout of 256 makes one trie level consume 8 key bits = 4 grid
//     levels, bounding a lookup over 30 grid levels to ⌈60/8⌉ = 8 node
//     accesses;
//   - the two least-significant bits of an entry select between: a child
//     reference (or the sentinel meaning "false hit"), one inlined 31-bit
//     payload, two inlined payloads, or a 31-bit offset into a lookup table
//     holding reference sets of three or more polygons;
//   - a payload is polygonID<<1 | trueHitBit, so up to 2^30 polygons can be
//     indexed and true hits are distinguished from candidate hits without
//     touching the lookup table;
//   - cells whose level is not a multiple of the node granularity are
//     denormalized: their value fills the contiguous range of slots their
//     quadrant prefix selects.
//
// Denormalization is run-encoded, not materialized. On real maps nearly
// every slot is filled but equal neighbours dominate (about seven slots per
// distinct entry at 60 m, thirty at 15 m), so a node stores each run of equal
// slots once:
//
//	node+0 … node+W-1   run-start bitmap, W = ⌈fanout/64⌉ words: bit i is set
//	                    where slot i's entry differs from slot i-1's (bit 0
//	                    always)
//	node+W              rank word: 16-bit field k holds the number of bits set
//	                    in bitmap words 0 … k-1
//	node+W+1 …          one entry per run, in slot order
//
// and the entry of slot i is
//
//	arena[node + W + rank[i>>6] + popcount(bitmap[i>>6] << (63 - i&63))]
//
// (the popcount includes slot i's own run, hence W rather than W+1): two
// header loads and the entry load from one or two adjacent cache lines, no
// branch, no comparison.
//
// Child references are word offsets into one flat node arena rather than raw
// pointers — the same 8-byte entries as the paper's implementation, minus
// unsafe pointer arithmetic. Offset 0 is the sentinel, a one-run node whose
// entry is 0.
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"github.com/actindex/act/internal/cellid"
)

// Entry tags (the two least-significant bits of a tagged entry).
const (
	tagChild   = 0 // child node index, or sentinel when the index is 0
	tagOne     = 1 // one inlined payload
	tagTwo     = 2 // two inlined payloads
	tagOffset  = 3 // offset into the lookup table
	tagMask    = 3
	payloadMax = 1<<31 - 1
)

// Config parameterizes the trie.
type Config struct {
	// Fanout is the number of entries per node. It must be 4, 16, 64, or
	// 256 so that a node consumes a whole number of quadtree levels.
	// The paper's default (and the best lookup latency) is 256.
	Fanout int
	// DisableInlining routes every reference set through the lookup
	// table, including single and double references that would normally
	// be inlined into the entry. Exists to quantify the benefit of
	// payload inlining ("we inline the polygon identifiers in the trie
	// structure to eliminate additional indirections", §II); production
	// use should leave it false.
	DisableInlining bool
}

// DefaultConfig returns the paper's configuration: fanout 256.
func DefaultConfig() Config { return Config{Fanout: 256} }

// Trie is the Adaptive Cell Trie. Build one with Build; a built trie is
// immutable and safe for concurrent lookups.
type Trie struct {
	fanout int
	bits   uint // log2(fanout): key bits consumed per node
	// words is the number of bitmap words per node, ⌈fanout/64⌉; a node's
	// rank word sits at node+words and its entries follow it.
	words uint64

	// nodes is the node arena, a sequence of run-compressed nodes (see the
	// package comment) addressed by word offset. The node at offset 0 is the
	// sentinel ("false hit"): one run whose entry is 0.
	nodes []uint64
	// roots holds the arena offset of each face's root, 0 when the face is
	// empty.
	roots [cellid.NumFaces]uint64
	// rootSkip and rootPrefix implement path compression at the root:
	// when all cells of a face share a key prefix (always the case for
	// city-scale data in a worldwide id space), the shared rootSkip bits
	// are not materialized as single-child nodes. A lookup instead
	// compares its top bits against rootPrefix once and jumps straight to
	// the first distinguishing node, trimming the dependent-load chain.
	rootSkip   [cellid.NumFaces]uint
	rootPrefix [cellid.NumFaces]uint64
	// table is the lookup table for reference sets with three or more
	// polygons, encoded as [numTrue, true…, numCand, cand…] runs.
	table []uint32
	// maxRef and hasRefs record the largest polygon id any entry can emit;
	// computed by TrieFromFlat's structural validation (see MaxPolygonRef).
	maxRef  uint32
	hasRefs bool
}

// newTrie returns an empty trie of the given fanout, arena unset.
func newTrie(fanout int) (*Trie, error) {
	switch fanout {
	case 4, 16, 64, 256:
	default:
		return nil, fmt.Errorf("%w: got %d", ErrBadFanout, fanout)
	}
	return &Trie{
		fanout: fanout,
		bits:   uint(bits.TrailingZeros(uint(fanout))),
		words:  uint64(fanout+63) / 64,
	}, nil
}

// entryAt returns the entry of slot idx of the node at offset node of an
// arena whose nodes have `words` bitmap words: the run containing idx is the
// rank of idx among the node's run starts. (A function of the hoisted fields
// rather than a method so the interleaved round loop shares it.)
func entryAt(nodes []uint64, words, node, idx uint64) uint64 {
	w := idx >> 6
	rank := nodes[node+words] >> (w << 4) & 0xffff
	return nodes[node+words+rank+uint64(bits.OnesCount64(nodes[node+w]<<(63-idx&63)))]
}

// rankWord returns the rank word of a node with the given bitmap: 16-bit
// field k holds the number of bits set in words 0 … k-1.
func rankWord(bitmap []uint64) uint64 {
	rank, runs := uint64(0), 0
	for w, word := range bitmap {
		rank |= uint64(runs) << (16 * w)
		runs += bits.OnesCount64(word)
	}
	return rank
}

// nodeRuns returns the number of runs — stored entries — of the node at
// arena offset node, whose bitmap words must lie inside the arena.
func (t *Trie) nodeRuns(node uint64) uint64 {
	n := 0
	for _, bm := range t.nodes[node : node+t.words] {
		n += bits.OnesCount64(bm)
	}
	return uint64(n)
}

// entries returns the stored entries of the node at arena offset node, one
// per run in slot order.
func (t *Trie) entries(node uint64) []uint64 {
	first := node + t.words + 1
	return t.nodes[first : first+t.nodeRuns(node)]
}

// isChild reports whether e references a child node (as opposed to being
// empty or a terminal value).
func isChild(e uint64) bool { return e != 0 && e&tagMask == tagChild }

// Result receives the polygon references of a lookup. Reuse one Result
// across lookups to keep the hot path allocation-free.
type Result struct {
	// True holds ids of polygons that certainly contain the point.
	True []uint32
	// Candidates holds ids of polygons whose boundary cell the point hit:
	// the point is inside or within the precision bound of each.
	Candidates []uint32
}

// Reset clears the result for reuse without releasing capacity.
func (r *Result) Reset() {
	r.True = r.True[:0]
	r.Candidates = r.Candidates[:0]
}

// Total returns the number of polygon references in the result.
func (r *Result) Total() int { return len(r.True) + len(r.Candidates) }

// Equal reports whether two results hold the same references, in the same
// order, in the same hit classes.
func (r *Result) Equal(o *Result) bool {
	return slices.Equal(r.True, o.True) && slices.Equal(r.Candidates, o.Candidates)
}

// Filter removes, in place and preserving order, every reference (in both
// hit classes) for which drop returns true. It allocates nothing; the delta
// overlay uses it to strip tombstoned polygon ids from base-trie results
// before delta hits are appended.
func (r *Result) Filter(drop func(id uint32) bool) {
	r.True = filterIDs(r.True, drop)
	r.Candidates = filterIDs(r.Candidates, drop)
}

// filterIDs compacts ids in place, dropping those selected by drop.
func filterIDs(ids []uint32, drop func(id uint32) bool) []uint32 {
	out := ids[:0]
	for _, id := range ids {
		if !drop(id) {
			out = append(out, id)
		}
	}
	return out
}

// Errors returned by Build.
var (
	ErrBadFanout  = errors.New("core: fanout must be 4, 16, 64, or 256")
	ErrOverlap    = errors.New("core: covering cells overlap (input not prefix-free)")
	ErrEmptyRefs  = errors.New("core: cell with no polygon references")
	ErrPolygonID  = errors.New("core: polygon id exceeds 30 bits")
	ErrTableLimit = errors.New("core: lookup table exceeds 31-bit offset space")
)

// walk descends from leaf's face root to the terminal entry covering it.
// It returns 0 — the sentinel, never a terminal entry's value since all
// terminal tags are nonzero — when no covering cell matches (false hit).
// The walk is comparison-free: each step extracts the next key bits and
// jumps, exactly as in the paper.
func (t *Trie) walk(leaf cellid.ID) uint64 {
	face := leaf.Face()
	cur := t.roots[face]
	if cur == 0 {
		return 0
	}
	key := leaf.PathBits() << 4
	// Path-compressed root: one comparison replaces the walk through the
	// single-child chain shared by all indexed cells. (x>>64 is 0 in Go,
	// so skip=0 degenerates to comparing 0 with 0.)
	skip := t.rootSkip[face]
	if (key^t.rootPrefix[face])>>(64-skip) != 0 {
		return 0
	}
	key <<= skip
	for {
		idx := key >> (64 - t.bits)
		key <<= t.bits
		entry := entryAt(t.nodes, t.words, cur, idx)
		if entry&tagMask != tagChild {
			return entry
		}
		if entry == 0 {
			return 0 // sentinel: false hit
		}
		cur = entry >> 2
	}
}

// Lookup finds the covering cell containing the query point's leaf cell and
// appends its polygon references to res. It reports whether any cell
// matched.
func (t *Trie) Lookup(leaf cellid.ID, res *Result) bool {
	entry := t.walk(leaf)
	switch entry & tagMask {
	case tagChild: // only the sentinel carries this tag here
		return false
	case tagOne:
		res.addPayload(uint32(entry >> 2))
	case tagTwo:
		res.addPayload(uint32(entry >> 2 & payloadMax))
		res.addPayload(uint32(entry >> 33))
	default: // tagOffset
		t.readTable(uint32(entry>>2), res)
	}
	return true
}

// Match is one polygon reference of a lookup with its hit class: Exact
// reports whether the reference came from an interior cell (a true hit —
// the point is certainly inside) as opposed to a boundary cell (a candidate
// that exact joins must refine against real geometry).
type Match struct {
	ID    uint32
	Exact bool
}

// AppendRefs appends every polygon reference of the covering cell containing
// leaf to dst — true hits with Exact set, candidates without — and returns
// the extended slice. It is the allocation-free variant of Lookup: with a
// reused dst the walk touches only the node arena and the lookup table, and
// the true-hit/candidate distinction is carried per reference.
func (t *Trie) AppendRefs(leaf cellid.ID, dst []Match) []Match {
	entry := t.walk(leaf)
	switch entry & tagMask {
	case tagChild: // only the sentinel carries this tag here
		return dst
	case tagOne:
		return appendPayload(dst, uint32(entry>>2))
	case tagTwo:
		return appendPayload(appendPayload(dst, uint32(entry>>2&payloadMax)), uint32(entry>>33))
	default: // tagOffset
		off := uint32(entry >> 2)
		nTrue := t.table[off]
		off++
		for _, id := range t.table[off : off+nTrue] {
			dst = append(dst, Match{ID: id, Exact: true})
		}
		off += nTrue
		nCand := t.table[off]
		off++
		for _, id := range t.table[off : off+nCand] {
			dst = append(dst, Match{ID: id})
		}
		return dst
	}
}

// appendPayload decodes one 31-bit payload into a Match.
func appendPayload(dst []Match, p uint32) []Match {
	return append(dst, Match{ID: p >> 1, Exact: p&1 != 0})
}

// addPayload decodes one 31-bit payload into the result.
func (r *Result) addPayload(p uint32) {
	if p&1 != 0 {
		r.True = append(r.True, p>>1)
	} else {
		r.Candidates = append(r.Candidates, p>>1)
	}
}

// readTable decodes a lookup-table run into the result.
func (t *Trie) readTable(off uint32, res *Result) {
	nTrue := t.table[off]
	off++
	res.True = append(res.True, t.table[off:off+nTrue]...)
	off += nTrue
	nCand := t.table[off]
	off++
	res.Candidates = append(res.Candidates, t.table[off:off+nCand]...)
}

// LookupBatch performs one Lookup per leaf cell, invoking emit(i, hit) for
// each with res holding leaf i's references (res is reset before every
// lookup). Instead of re-descending from the root for every probe, the walk
// resumes at the deepest node on the path shared with the previous leaf:
// the shared key prefix is the shared node path, because trie edges consume
// fixed key chunks. Feeding leaves in ascending id order (Z-order) makes
// consecutive probes near-neighbours in the trie, so most lookups touch
// only the last one or two nodes of the previous path — the cell-sorted
// join's fast path. Correctness does not depend on the input order.
func (t *Trie) LookupBatch(leaves []cellid.ID, res *Result, emit func(i int, hit bool)) {
	// stack[d] is the node whose entries the walk reads after consuming d
	// key chunks; stack[0] is the face root. 32 covers the deepest possible
	// path (fanout 4: 30 chunks of 2 bits; validateStructure holds loaded
	// arenas to maxKeyChunks).
	var stack [32]uint64
	prevFace := -1     // face of the last walked leaf, -1 before any walk
	var prevKey uint64 // post-skip key of the last walked leaf
	prevDepth := 0     // chunks consumed when that walk ended
	for i, leaf := range leaves {
		res.Reset()
		face := leaf.Face()
		root := t.roots[face]
		if root == 0 {
			emit(i, false)
			continue
		}
		key := leaf.PathBits() << 4
		skip := t.rootSkip[face]
		if (key^t.rootPrefix[face])>>(64-skip) != 0 {
			// Prefix mismatch: no walk happened, the previous path is
			// still intact for the next leaf.
			emit(i, false)
			continue
		}
		key <<= skip
		d := 0
		if face == prevFace {
			d = bits.LeadingZeros64(key^prevKey) / int(t.bits)
			if d > prevDepth {
				d = prevDepth
			}
		} else {
			stack[0] = root
		}
		cur := stack[d]
		k := key << (uint(d) * t.bits)
		hit := false
	walk:
		for {
			idx := k >> (64 - t.bits)
			k <<= t.bits
			entry := entryAt(t.nodes, t.words, cur, idx)
			switch entry & tagMask {
			case tagChild:
				if entry == 0 {
					break walk // sentinel: false hit
				}
				cur = entry >> 2
				d++
				stack[d] = cur
			case tagOne:
				res.addPayload(uint32(entry >> 2))
				hit = true
				break walk
			case tagTwo:
				res.addPayload(uint32(entry >> 2 & payloadMax))
				res.addPayload(uint32(entry >> 33))
				hit = true
				break walk
			default: // tagOffset
				t.readTable(uint32(entry>>2), res)
				hit = true
				break walk
			}
		}
		prevFace, prevKey, prevDepth = face, key, d
		emit(i, hit)
	}
}

// LookupCounting behaves like Lookup but also returns the number of node
// accesses performed, for the cost model c_avg = ⌈k_avg/log2(f)⌉ × node
// access cost (paper §II).
func (t *Trie) LookupCounting(leaf cellid.ID, res *Result) (hit bool, nodeAccesses int) {
	face := leaf.Face()
	cur := t.roots[face]
	if cur == 0 {
		return false, 0
	}
	key := leaf.PathBits() << 4
	skip := t.rootSkip[face]
	if (key^t.rootPrefix[face])>>(64-skip) != 0 {
		return false, 0
	}
	key <<= skip
	for {
		nodeAccesses++
		idx := key >> (64 - t.bits)
		key <<= t.bits
		entry := entryAt(t.nodes, t.words, cur, idx)
		switch entry & tagMask {
		case tagChild:
			if entry == 0 {
				return false, nodeAccesses
			}
			cur = entry >> 2
		case tagOne:
			res.addPayload(uint32(entry >> 2))
			return true, nodeAccesses
		case tagTwo:
			res.addPayload(uint32(entry >> 2 & payloadMax))
			res.addPayload(uint32(entry >> 33))
			return true, nodeAccesses
		default:
			t.readTable(uint32(entry>>2), res)
			return true, nodeAccesses
		}
	}
}

// Fanout returns the configured fanout.
func (t *Trie) Fanout() int { return t.fanout }

// Stats describes the memory footprint and shape of a trie, the quantities
// Table I of the paper reports. The three value counts count runs — stored
// entries — not slots: a cell denormalized over 64 slots is one value.
type Stats struct {
	Fanout         int
	NumNodes       int   // allocated nodes, excluding the sentinel
	TrieBytes      int64 // node arena size: arena words × 8
	TableBytes     int64 // lookup table size
	TableEntries   int   // uint32 words in the lookup table
	InlinedValues  int   // runs holding 1–2 inlined payloads
	OffsetValues   int   // runs referencing the lookup table
	ChildPointers  int   // runs referencing child nodes
	MaxDepth       int   // deepest node depth observed (root = 1)
	RootSkipLevels int   // grid levels compressed at the root (max across faces)
	TotalBytes     int64 // TrieBytes + TableBytes
}

// ComputeStats scans the arena and summarizes the trie. The arena is in
// breadth-first order (Build and TrieFromFlat hand out nothing else), so the
// nodes of one depth are contiguous and the child pointers among them count
// the nodes of the next: one sequential pass, no traversal state.
func (t *Trie) ComputeStats() Stats {
	s := Stats{
		Fanout:       t.fanout,
		TrieBytes:    int64(len(t.nodes)) * 8,
		TableBytes:   int64(len(t.table)) * 4,
		TableEntries: len(t.table),
	}
	s.TotalBytes = s.TrieBytes + s.TableBytes
	level := 0 // nodes at the depth being scanned; starts as the roots
	for face, root := range t.roots {
		if root != 0 {
			level++
			s.RootSkipLevels = max(s.RootSkipLevels, int(t.rootSkip[face])/2)
		}
	}
	node := t.words + 2 // first node past the sentinel
	for ; level > 0; s.MaxDepth++ {
		s.NumNodes += level
		children := s.ChildPointers
		for ; level > 0; level-- {
			entries := t.entries(node)
			for _, e := range entries {
				switch e & tagMask {
				case tagChild:
					if e != 0 {
						s.ChildPointers++
					}
				case tagOne, tagTwo:
					s.InlinedValues++
				default:
					s.OffsetValues++
				}
			}
			node += t.words + 1 + uint64(len(entries))
		}
		level = s.ChildPointers - children
	}
	return s
}
