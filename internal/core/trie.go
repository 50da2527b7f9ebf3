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
//	                first: slot i's code is bits i·w to i·w+w-1 of the
//	                stream that runs from word end-1 down, bit 0 of each
//	                word first, so a code may straddle two words
//	pal …           the palette: the node's d distinct entries in first-use
//	                slot order
//
// w is the narrowest width, 1 to 8 bits, with 2^w ≥ d: ⌈log2 d⌉, at least 1
// (rounding it up to 1, 2, 4 or 8 bits, as index versions before 13 did,
// took 20 012 more arena words on the census map at 60 m). The node has
// no header: a child entry (and a face root) carries w-1 in bits 2–4, the
// palette offset pal in bits 5–33 and, in bits 34–63, the signed distance
// end-pal from the palette to the end of the code block, so the entry of
// slot i is, with b = i·w, k = end-1-b>>6 and s = b&63,
//
//	arena[pal + (arena[k]>>s | arena[k-1]<<1<<(63-s)) & (1<<w - 1)]
//
// — two dependent loads (the second word lies next to the first), no
// branch, no comparison, no count. arena[k-1] lies in the arena because
// every code block but the sentinel's starts past word 0.
//
// The two blocks are stored apart because nodes repeat them: the census map
// at 60 m has 14 793 nodes but 11 575 distinct code blocks, and at 15 m
// 364 547 nodes share 11 643. Relayout lays the arena out in two regions.
// The top region holds, breadth-first, every face root and every node with
// a child: each stores its palette, and its code block unless an equal block
// of its code width is stored there already, which it then names (18 785
// words on the census map). The leaf region holds the leaves' distinct code
// blocks and palettes — 24 807 of them on the census map — as one greedy
// superstring of words: a short palette that occurs inside a longer one is
// named there, and the rest are chained so that each block starts where the
// words ending the one before it agree with its own. That packs the arena
// into 192 529 words, where storing each distinct block whole took
// 216 483. A child entry names any palette offset and any code-block end,
// so a leaf's two blocks may lie anywhere in that region, overlap each
// other or other leaves' blocks, and a lookup reads them exactly as it reads
// a node of the top region. A palette that holds a child entry, and a face root's palette,
// is never shared, so nodes still form a tree apart from identical leaves
// (two slots of one node may name one), and a walk over every node
// (validation, Cells, ComputeStats) stays linear in the arena.
//
// Build and BuildStream take one thing: the cells of a prefix-free super
// covering in ascending id order, with their references. Every layout
// decision is the trie's own: the builder builds each face from the face
// cell down and, as the face closes, turns the chain of single-child nodes
// at its top into the face's root skip; Relayout then lays out the nodes
// walks reach.
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
	// The builder sets both when a face closes, from the chain of open
	// nodes that hold nothing but the path on (builder.closeFace): whole
	// chunks every cell of the face shares, a chunk of every cell's path
	// left below them.
	rootSkip   [cellid.NumFaces]uint
	rootPrefix [cellid.NumFaces]uint64
	// table is the lookup table for reference sets with three or more
	// polygons, encoded as [numTrue, true…, numCand, cand…] runs.
	table []uint32
	// maxRef and hasRefs record the largest polygon id any entry can emit;
	// computed by TrieFromFlat's structural validation (see MaxPolygonRef).
	maxRef  uint32
	hasRefs bool
	// reached counts the nodes walks reach, the sentinel excluded, and
	// unshared the words they and the sentinel took in the builder's arena,
	// before Relayout shared and packed them, as Relayout or the validation
	// that laid out or scanned the arena found them (see Size and
	// BuildStream).
	reached, unshared int
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
// names: the slot's code, then the palette entry it selects. A code may
// straddle into the word below the one it starts in, which the funnel shift
// joins in; that word lies in the arena, since every code block but the
// sentinel's starts past word 0.
func entryAt(nodes []uint64, node, idx uint64) uint64 {
	pal, w := node>>5&offsetMask, node>>2&7+1
	end := pal + uint64(int64(node)>>34)
	bit := idx * w
	k, s := end-1-bit>>6, bit&63
	return nodes[pal+(nodes[k]>>s|nodes[k-1]<<1<<(^s&63))&(1<<w-1)]
}

// offsetMask selects the palette offset of a child entry, once shifted down
// by 5: 29 bits, which name any word of an arena of MaxArenaWords. The
// distance field above it is 30 bits, signed.
const offsetMask = 1<<29 - 1

// childEntry is the entry naming the node whose palette starts at word pal,
// whose code block ends right before word end, and whose codes are w bits
// wide, 1 to 8.
func childEntry(pal, end, w uint64) uint64 {
	return (end-pal)<<34 | pal<<5 | (w-1)<<2 | tagChild
}

// paletteAt returns the palette offset of the node the child entry node names.
func paletteAt(node uint64) uint64 { return node >> 5 & offsetMask }

// codeEnd returns the word past the code block of the node the child entry
// node names.
func codeEnd(node uint64) uint64 { return paletteAt(node) + uint64(int64(node)>>34) }

// widthOf returns the code width, 1 to 8 bits, of the node the child entry
// node names.
func widthOf(node uint64) uint64 { return node>>2&7 + 1 }

// codeWidth returns the narrowest code width that numbers a palette of d
// entries: ⌈log2 d⌉ bits, at least one.
func codeWidth(d int) uint64 { return uint64(max(bits.Len(uint(d-1)), 1)) }

// codeWords returns the number of code words of a node of fanout slots whose
// codes are w bits wide.
func codeWords(fanout int, w uint64) uint64 { return (uint64(fanout)*w + 63) >> 6 }

// sentinel returns the child entry naming the sentinel node: fanout one-bit
// codes, all zero, selecting its one palette entry, 0.
func (t *Trie) sentinel() uint64 {
	c := codeWords(t.fanout, 1)
	return childEntry(c, c, 1)
}

// window returns the 64 bits of the code stream of the code block ending
// before word end that start at bit: the stream runs from word end-1 down,
// and a window that starts inside a word takes its top bits from the word
// below. The block must lie inside the arena and start past word 0.
func (t *Trie) window(end, bit uint64) uint64 {
	k, s := end-1-bit>>6, bit&63
	return t.nodes[k]>>s | t.nodes[k-1]<<1<<(^s&63)
}

// lowBits returns the lowest bit of each whole w-bit code of the window
// that starts at slot i's code, leaving out the slots past the fanout. A
// window holds 64/w codes.
func (t *Trie) lowBits(w uint64, i int) uint64 {
	low := codeLows[w]
	if rest := uint64(t.fanout - i); rest < 64/w {
		low &= 1<<(rest*w) - 1
	}
	return low
}

// codeLows[w] has the lowest bit of each whole w-bit code of a 64-bit word
// set.
var codeLows = func() (lows [9]uint64) {
	for w := uint64(1); w <= 8; w++ {
		for b := uint64(0); b+w <= 64; b += w {
			lows[w] |= 1 << b
		}
	}
	return lows
}()

// runs lists the runs of equal codes of the node the child entry node names,
// in slot order: run r covers slots starts[r] up to starts[r+1] and holds
// code codes[r]. It closes starts with fanout and returns the number of
// runs. The node's code words must lie inside the arena, past word 0.
func (t *Trie) runs(node uint64, starts *[maxFanout + 1]uint16, codes *[maxFanout]uint8) int {
	w, end := widthOf(node), codeEnd(node)
	per, mask := 64/w, uint64(1)<<w-1
	n, prev := 0, uint64(0) // prev: the last code of the window before
	for i := 0; i < t.fanout; i += int(per) {
		x, low := t.window(end, uint64(i)*w), t.lowBits(w, i)
		// A run starts where a code differs from the one before it: set the
		// top bit of each code of x ^ (x shifted one code up) that is not
		// zero — adding each code's lower bits to all ones carries into its
		// top bit unless they are zero, and never past it — then move it
		// down to the code's lowest.
		y := x ^ (x<<w | prev)
		body, top := low*(mask>>1), low<<(w-1)
		y = ((y&body + body) | y) & top >> (w - 1)
		if i == 0 {
			y |= 1 // slot 0 starts the first run
		}
		for ; y != 0; y &= y - 1 {
			b := uint64(bits.TrailingZeros64(y))
			starts[n], codes[n] = uint16(i+int(b/w)), uint8(x>>b&mask)
			n++
		}
		prev = x >> ((per - 1) * w) & mask
	}
	starts[n] = uint16(t.fanout)
	return n
}

// codes returns the code block of the node the child entry node names. The
// block must lie inside the arena.
func (t *Trie) codes(node uint64) []uint64 {
	end := codeEnd(node)
	return t.nodes[end-codeWords(t.fanout, widthOf(node)) : end]
}

// palette returns the distinct entries of the node the child entry node
// names — as many as its largest code selects. The node must lie inside the
// arena, its code block past word 0.
func (t *Trie) palette(node uint64) []uint64 {
	w, end := widthOf(node), codeEnd(node)
	per := 64 / w
	// The largest code, decided one bit plane at a time from the top, all
	// codes of a window at once: tied holds, per window, the lowest bit of
	// every code still tied for the largest.
	var xs, tied [maxFanout / 8]uint64
	n := 0
	for i := 0; i < t.fanout; i += int(per) {
		xs[n], tied[n] = t.window(end, uint64(i)*w), t.lowBits(w, i)
		n++
	}
	top := uint64(0)
	for plane := w; plane > 0; plane-- {
		b := plane - 1
		var any uint64
		for k, x := range xs[:n] {
			any |= x >> b & tied[k]
		}
		if any != 0 {
			top |= 1 << b
			for k, x := range xs[:n] {
				tied[k] &= x >> b
			}
		}
	}
	pal := paletteAt(node)
	return t.nodes[pal : pal+top+1]
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
// overlay uses it to strip removed polygon ids from merged results.
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

// walk descends from leaf's face root to the terminal entry covering it,
// and returns that entry with the number of nodes it read (the cost model's
// node accesses, paper §II). The entry is 0 — the sentinel, never a terminal
// entry's value since all terminal tags are nonzero — when no covering cell
// matches (false hit). The walk is comparison-free: each step extracts the
// next key bits and jumps, exactly as in the paper.
func (t *Trie) walk(leaf cellid.ID) (entry uint64, nodes int) {
	face := leaf.Face()
	cur := t.roots[face]
	if cur == 0 {
		return 0, 0
	}
	key := leaf.PathBits() << 4
	// Path-compressed root: one comparison replaces the walk through the
	// single-child chain shared by all indexed cells. (x>>64 is 0 in Go,
	// so skip=0 degenerates to comparing 0 with 0.)
	skip := t.rootSkip[face]
	if (key^t.rootPrefix[face])>>(64-skip) != 0 {
		return 0, 0
	}
	key <<= skip
	arena, kbits := t.nodes, t.bits
	for {
		nodes++
		idx := key >> (64 - kbits)
		key <<= kbits
		entry = entryAt(arena, cur, idx)
		if entry&tagMask != tagChild || entry == 0 {
			return entry, nodes
		}
		cur = entry
	}
}

// Lookup finds the covering cell containing the query point's leaf cell and
// appends its polygon references to res. It reports whether any cell
// matched.
func (t *Trie) Lookup(leaf cellid.ID, res *Result) bool {
	entry, _ := t.walk(leaf)
	return t.appendTerminal(entry, res)
}

// appendTerminal decodes the entry a walk ended on into res and reports
// whether it is a terminal entry; the sentinel (0, the only entry a walk
// ends on with the child tag) appends nothing and reports false.
func (t *Trie) appendTerminal(entry uint64, res *Result) bool {
	switch entry & tagMask {
	case tagChild:
		return false
	case tagOne:
		res.addPayload(uint32(entry >> 2))
	case tagTwo:
		res.addPayload(uint32(entry >> 2 & payloadMax))
		res.addPayload(uint32(entry >> 33))
	default: // tagOffset: a lookup-table run
		off := uint32(entry >> 2)
		nTrue := t.table[off]
		off++
		res.True = append(res.True, t.table[off:off+nTrue]...)
		off += nTrue
		nCand := t.table[off]
		off++
		res.Candidates = append(res.Candidates, t.table[off:off+nCand]...)
	}
	return true
}

// addPayload decodes one 31-bit payload into the result.
func (r *Result) addPayload(p uint32) {
	if p&1 != 0 {
		r.True = append(r.True, p>>1)
	} else {
		r.Candidates = append(r.Candidates, p>>1)
	}
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
		var entry uint64
		for {
			idx := k >> (64 - kbits)
			k <<= kbits
			entry = entryAt(nodes, cur, idx)
			if entry&tagMask != tagChild || entry == 0 {
				break
			}
			cur = entry
			d++
			stack[d] = cur
		}
		prevFace, prevKey, prevDepth = face, key, d
		emit(i, t.appendTerminal(entry, res))
	}
}

// LookupCounting is Lookup that also returns the number of node accesses
// walk performed, for the cost model c_avg = ⌈k_avg/log2(f)⌉ × node access
// cost (paper §II).
func (t *Trie) LookupCounting(leaf cellid.ID, res *Result) (hit bool, nodeAccesses int) {
	entry, n := t.walk(leaf)
	return t.appendTerminal(entry, res), n
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
