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
// Denormalization is palette-coded, not materialized. On real maps nearly
// every slot is filled, yet a node holds only a handful of distinct entries
// (6.2 per node on average at 60 m on the census map, where a node holds 37
// runs of equal slots; p99 15). So a node stores each distinct entry once,
// the way the lookup table stores each distinct reference set once, and one
// w-bit code per slot, in two blocks of words:
//
//	end-C … end-1   the code block, C = ⌈fanout·w/64⌉ words, last word
//	                first: slot i's code sits at end-1-(i·w>>6), bits i·w&63
//	                and up
//	pal …           the palette: the node's d distinct entries in first-use
//	                slot order
//
// w is the narrowest of 1, 2, 4, 8 bits with 2^w ≥ d. The node has no header:
// a child entry (and a face root) carries log2(w) in bits 2–3, the palette
// offset pal in bits 4–33 and, in bits 34–63, the signed distance end-pal
// from the palette to the end of the code block, so the entry of slot i is
//
//	arena[pal + (arena[end-1-(i·w>>6)] >> (i·w&63) & (1<<w - 1))]
//
// — two dependent loads, no branch, no comparison, no count.
//
// The two blocks are stored apart because nodes repeat them: the census map
// at 60 m has 14 793 nodes but 11 575 distinct code blocks, and at 15 m
// 364 547 nodes share 11 643. Relayout stores the first use of a code block
// (per code width) and of a palette, and every later use with equal words
// names that first copy. A node usually stores both blocks itself, its codes
// right before its palette (distance 0); one that shares the code block
// stores just its palette, and one that shares both stores nothing. A palette
// that holds a child entry, and a face root's palette, is never shared, so
// nodes still form a tree apart from identical leaves (two slots of one node
// may name one), and a walk over every node (validation, Cells,
// ComputeStats) stays linear in the arena.
//
// Child references are word offsets into one flat node arena rather than raw
// pointers — the same 8-byte entries as the paper's implementation, minus
// unsafe pointer arithmetic. The arena starts with the sentinel, a one-entry
// node whose entry is 0 ("no covering cell"); an empty slot holds 0 too.
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

	// nodes is the node arena, a sequence of palette-coded nodes (see the
	// package comment) addressed by word offset, the sentinel first.
	nodes []uint64
	// roots holds the child entry naming each face's root node, 0 when the
	// face is empty.
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
	// reached counts the nodes walks reach, the sentinel excluded, as
	// Relayout or the validation that laid out or scanned the arena found
	// them (see Size).
	reached int
}

// newTrie returns an empty trie of the given fanout, arena unset.
func newTrie(fanout int) (*Trie, error) {
	switch fanout {
	case 4, 16, 64, 256:
	default:
		return nil, fmt.Errorf("%w: got %d", ErrBadFanout, fanout)
	}
	return &Trie{fanout: fanout, bits: uint(bits.TrailingZeros(uint(fanout)))}, nil
}

// entryAt returns the entry of slot idx of the node the child entry node
// names: the slot's code, then the palette entry it selects.
func entryAt(nodes []uint64, node, idx uint64) uint64 {
	pal, bit := node>>4&offsetMask, idx<<(node>>2&3)
	end := pal + uint64(int64(node)>>34)
	// 0xff0f0301 holds the code masks of widths 1, 2, 4, 8 bytewise; node<<1&24
	// is 8·log2(w).
	return nodes[pal+nodes[end-1-bit>>6]>>(bit&63)&(0xff0f0301>>(node<<1&24)&0xff)]
}

// offsetMask selects the palette offset of a child entry, once shifted down
// by 4. The distance field above it is as wide, so an entry reaches any word
// of an arena of MaxArenaWords.
const offsetMask = 1<<30 - 1

// childEntry is the entry naming the node whose palette starts at word pal,
// whose code block ends right before word end, and whose codes are 1<<lw bits
// wide.
func childEntry(pal, end, lw uint64) uint64 { return (end-pal)<<34 | pal<<4 | lw<<2 | tagChild }

// paletteAt returns the palette offset of the node the child entry node names.
func paletteAt(node uint64) uint64 { return node >> 4 & offsetMask }

// codeEnd returns the word past the code block of the node the child entry
// node names.
func codeEnd(node uint64) uint64 { return paletteAt(node) + uint64(int64(node)>>34) }

// codeWidth returns log2 of the narrowest code width — 1, 2, 4 or 8 bits —
// that numbers a palette of d entries.
func codeWidth(d int) uint64 {
	switch {
	case d <= 2:
		return 0
	case d <= 4:
		return 1
	case d <= 16:
		return 2
	default:
		return 3
	}
}

// codeWords returns the number of code words of a node of fanout slots whose
// codes are 1<<lw bits wide.
func codeWords(fanout int, lw uint64) uint64 { return (uint64(fanout)<<lw + 63) >> 6 }

// sentinel returns the child entry naming the sentinel node: fanout one-bit
// codes, all zero, selecting its one palette entry, 0.
func (t *Trie) sentinel() uint64 {
	c := codeWords(t.fanout, 0)
	return childEntry(c, c, 0)
}

// runs lists the runs of equal codes of the node the child entry node names,
// in slot order: run r covers slots starts[r] up to starts[r+1] and holds
// code codes[r]. It closes starts with fanout and returns the number of
// runs. The node's code words must lie inside the arena.
func (t *Trie) runs(node uint64, starts *[maxFanout + 1]uint16, codes *[maxFanout]uint8) int {
	lw := node >> 2 & 3
	w, per := uint64(1)<<lw, min(64>>lw, t.fanout) // code width, codes per word
	low := t.lowBits(lw)
	n, prev := 0, uint64(0) // prev: the last code of the word before
	for i, k := 0, codeEnd(node)-1; i < t.fanout; i, k = i+per, k-1 {
		x := t.nodes[k]
		// A run starts where a code differs from the one before it: fold
		// each code's bits of x ^ (x shifted one code up) into its lowest.
		y := x ^ (x<<w | prev)
		for s := w >> 1; s > 0; s >>= 1 {
			y |= y >> s
		}
		if y &= low; i == 0 {
			y |= 1 // slot 0 starts the first run
		}
		for ; y != 0; y &= y - 1 {
			b := uint64(bits.TrailingZeros64(y))
			starts[n], codes[n] = uint16(i+int(b>>lw)), uint8(x>>b&(1<<w-1))
			n++
		}
		prev = x >> (64 - w)
	}
	starts[n] = uint16(t.fanout)
	return n
}

// codes returns the code block of the node the child entry node names. The
// block must lie inside the arena.
func (t *Trie) codes(node uint64) []uint64 {
	end := codeEnd(node)
	return t.nodes[end-codeWords(t.fanout, node>>2&3) : end]
}

// palette returns the distinct entries of the node the child entry node
// names — as many as its largest code selects. The node must lie inside the
// arena.
func (t *Trie) palette(node uint64) []uint64 {
	lw := node >> 2 & 3
	w := uint64(1) << lw
	words := t.codes(node)
	// The largest code, decided one bit plane at a time from the top, all
	// codes of a word at once: tied holds, per code word, the lowest bit of
	// every code still tied for the largest.
	var tied [maxFanout / 8]uint64
	low := t.lowBits(lw)
	for k := range words {
		tied[k] = low
	}
	top := uint64(0)
	for plane := w; plane > 0; plane-- {
		b := plane - 1
		var any uint64
		for k, x := range words {
			any |= x >> b & tied[k]
		}
		if any != 0 {
			top |= 1 << b
			for k, x := range words {
				tied[k] &= x >> b
			}
		}
	}
	pal := paletteAt(node)
	return t.nodes[pal : pal+top+1]
}

// lowBits returns the lowest bit of every code a code word holds, for this
// trie's fanout and codes 1<<lw bits wide.
func (t *Trie) lowBits(lw uint64) uint64 {
	low := ^uint64(0) / (1<<(1<<lw) - 1)
	if n := uint64(t.fanout) << lw; n < 64 {
		low &= 1<<n - 1
	}
	return low
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
	ErrArenaLimit = errors.New("core: node arena exceeds the child entries' offset space")
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
	nodes, kbits := t.nodes, t.bits
	for {
		idx := key >> (64 - kbits)
		key <<= kbits
		entry := entryAt(nodes, cur, idx)
		if entry&tagMask != tagChild {
			return entry
		}
		if entry == 0 {
			return 0 // sentinel: false hit
		}
		cur = entry
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
	nodes, kbits := t.nodes, t.bits
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
			idx := k >> (64 - kbits)
			k <<= kbits
			entry := entryAt(nodes, cur, idx)
			switch entry & tagMask {
			case tagChild:
				if entry == 0 {
					break walk // sentinel: false hit
				}
				cur = entry
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
		entry := entryAt(t.nodes, cur, idx)
		switch entry & tagMask {
		case tagChild:
			if entry == 0 {
				return false, nodeAccesses
			}
			cur = entry
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
// Table I of the paper reports. NumNodes and the three value counts count
// what walks reach: a node once per entry naming it, so a shared leaf counts
// as often as it is named, and a value once per node whose palette holds it,
// however many slots select it.
type Stats struct {
	Fanout         int
	NumNodes       int   // nodes a walk reaches, excluding the sentinel
	TrieBytes      int64 // node arena size: arena words × 8
	TableBytes     int64 // lookup table size
	TableEntries   int   // uint32 words in the lookup table
	InlinedValues  int   // palette entries holding 1–2 inlined payloads
	OffsetValues   int   // palette entries referencing the lookup table
	ChildPointers  int   // palette entries referencing child nodes
	MaxDepth       int   // deepest node depth observed (root = 1)
	RootSkipLevels int   // grid levels compressed at the root (max across faces)
	TotalBytes     int64 // TrieBytes + TableBytes
}

// Size returns what ComputeStats reports as NumNodes, TrieBytes and
// TableBytes, without walking the trie: Relayout and TrieFromFlat's
// validation count the nodes as they lay out or scan the arena.
func (t *Trie) Size() (nodes int, trieBytes, tableBytes int64) {
	return t.reached, int64(len(t.nodes)) * 8, int64(len(t.table)) * 4
}

// ComputeStats walks the trie one depth at a time and summarizes it.
func (t *Trie) ComputeStats() Stats {
	s := Stats{
		Fanout:       t.fanout,
		TrieBytes:    int64(len(t.nodes)) * 8,
		TableBytes:   int64(len(t.table)) * 4,
		TableEntries: len(t.table),
	}
	s.TotalBytes = s.TrieBytes + s.TableBytes
	var level, next []uint64 // child entries of the nodes of one depth, the next
	for face, root := range t.roots {
		if root != 0 {
			level = append(level, root)
			s.RootSkipLevels = max(s.RootSkipLevels, int(t.rootSkip[face])/2)
		}
	}
	for ; len(level) > 0; s.MaxDepth++ {
		s.NumNodes += len(level)
		next = next[:0]
		for _, node := range level {
			for _, e := range t.palette(node) {
				switch e & tagMask {
				case tagChild:
					if e != 0 {
						s.ChildPointers++
						next = append(next, e)
					}
				case tagOne, tagTwo:
					s.InlinedValues++
				default:
					s.OffsetValues++
				}
			}
		}
		level, next = next, level
	}
	return s
}
