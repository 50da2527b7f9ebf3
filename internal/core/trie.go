// Package core implements the Adaptive Cell Trie (ACT), the paper's central
// contribution: a specialized in-memory radix tree over hierarchical grid
// cell ids that answers point-in-polygon-set queries with a handful of
// cache-line accesses and no comparisons.
//
// Structure (paper §II, Figure 2):
//
//   - every node is a fixed array of `fanout` tagged 8-byte entries; the
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
//     denormalized on insertion: their value is replicated across the
//     contiguous range of entries their quadrant prefix selects.
//
// Child references are indices into a flat node arena rather than raw
// pointers — the same 8-byte entry layout and cache behaviour as the paper's
// implementation, minus unsafe pointer arithmetic.
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/supercover"
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
	fanout   int
	bits     uint // log2(fanout): key bits consumed per node
	levels   int  // grid levels consumed per node (bits/2)
	maxDepth int  // deepest node depth reachable by valid cells

	// nodes is the node arena: node i occupies
	// nodes[i*fanout:(i+1)*fanout]. Node 0 is the sentinel ("false hit");
	// its entries are never read.
	nodes []uint64
	// roots holds the node index of each face's root, 0 when the face is
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

// Build constructs a trie from a prefix-free super covering. The node arena
// is relaid breadth-first before the trie is returned (see Relayout), so the
// hot top levels of every walk occupy a compact arena prefix.
func Build(sc *supercover.SuperCovering, cfg Config) (*Trie, error) {
	t, err := build(sc, cfg)
	if err != nil {
		return nil, err
	}
	t.Relayout()
	return t, nil
}

// build runs the insertion pipeline, leaving nodes in allocation order.
func build(sc *supercover.SuperCovering, cfg Config) (*Trie, error) {
	switch cfg.Fanout {
	case 4, 16, 64, 256:
	default:
		return nil, fmt.Errorf("%w: got %d", ErrBadFanout, cfg.Fanout)
	}
	t := &Trie{
		fanout: cfg.Fanout,
		bits:   uint(bits.TrailingZeros(uint(cfg.Fanout))),
	}
	t.levels = int(t.bits) / 2
	t.maxDepth = (2*cellid.MaxLevel - 1) / int(t.bits)
	// Pre-size the arena from the covering: every interior node holds at
	// least one child pointer or terminal entry, and cells dominate the
	// entry population, so NumCells bounds the node count at fanout 4 and
	// overshoots it by roughly fanout/4 at higher fanouts. Seeding the
	// capacity at cells/(fanout/4) lands within a doubling or two of the
	// final size on census-scale inputs, and allocNode grows geometrically
	// from there, so arena growth never degenerates into repeated
	// full-arena copies.
	hint := uint64(sc.NumCells())/(uint64(cfg.Fanout)/4) + 2
	t.nodes = make([]uint64, t.fanout, hint*uint64(t.fanout)) // node 0: sentinel
	t.computeRootSkips(sc)
	b := builder{t: t, tableIndex: make(map[string]uint32), noInline: cfg.DisableInlining}
	for i := 0; i < sc.NumCells(); i++ {
		if err := b.insert(sc.Cell(i), sc.Refs(i)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// computeRootSkips derives, per face, the longest node-aligned key prefix
// shared by every indexed cell. The super covering is sorted by id, so the
// common prefix of a face equals the common prefix of its first and last
// cells. Prefix-freeness guarantees every cell's path is strictly longer
// than the common prefix (an equal-length path would make that cell an
// ancestor of the rest), so at least one key chunk always remains.
func (t *Trie) computeRootSkips(sc *supercover.SuperCovering) {
	n := sc.NumCells()
	for lo := 0; lo < n; {
		face := sc.Cell(lo).Face()
		hi := lo
		for hi < n && sc.Cell(hi).Face() == face {
			hi++
		}
		first, last := sc.Cell(lo), sc.Cell(hi-1)
		var commonLevels int
		if anc, ok := cellid.CommonAncestor(first, last); ok {
			commonLevels = anc.Level()
		}
		skipBits := uint(2*commonLevels) / t.bits * t.bits
		// Keep at least one chunk of every cell's path below the skip;
		// the shallowest constraint comes from the shallower of the two
		// extreme cells (a level-0 cell never occurs in non-degenerate
		// input, but guard anyway).
		minLevel := first.Level()
		if l := last.Level(); l < minLevel {
			minLevel = l
		}
		for skipBits > 0 && int(skipBits) >= 2*minLevel {
			skipBits -= t.bits
		}
		t.rootSkip[face] = skipBits
		if skipBits > 0 {
			t.rootPrefix[face] = first.PathBits() << 4 >> (64 - skipBits) << (64 - skipBits)
		}
		lo = hi
	}
}

// builder holds build-only state (the lookup-table dedup map).
type builder struct {
	t          *Trie
	tableIndex map[string]uint32
	keyBuf     []byte
	noInline   bool
}

// insert stores the reference set of one covering cell.
func (b *builder) insert(cell cellid.ID, refs []supercover.Ref) error {
	if len(refs) == 0 {
		return fmt.Errorf("%w: cell %v", ErrEmptyRefs, cell)
	}
	level := cell.Level()
	if level == 0 {
		// A face cell has no key bits to index; denormalize to its four
		// children (possible only for degenerate world-spanning input).
		for _, child := range cell.Children() {
			if err := b.insert(child, refs); err != nil {
				return err
			}
		}
		return nil
	}
	value, err := b.encodeRefs(refs)
	if err != nil {
		return fmt.Errorf("cell %v: %w", cell, err)
	}

	t := b.t
	face := cell.Face()
	if t.roots[face] == 0 {
		t.roots[face] = t.allocNode()
	}
	cur := t.roots[face]

	key := cell.PathBits() << 4 // top-align the 60-bit path in 64 bits
	totalBits := 2 * level
	// Strip the face's compressed root prefix.
	if skip := t.rootSkip[face]; skip > 0 {
		if key>>(64-skip)<<(64-skip) != t.rootPrefix[face] {
			return fmt.Errorf("core: cell %v outside the face's common prefix", cell)
		}
		key <<= skip
		totalBits -= int(skip)
	}
	depth := (totalBits - 1) / int(t.bits)
	for d := 0; d < depth; d++ {
		idx := key >> (64 - t.bits)
		key <<= t.bits
		slot := cur*uint64(t.fanout) + idx
		entry := t.nodes[slot]
		switch {
		case entry == 0:
			child := t.allocNode()
			t.nodes[slot] = child << 2 // tagChild
			cur = child
		case entry&tagMask == tagChild:
			cur = entry >> 2
		default:
			return fmt.Errorf("%w: cell %v descends through an occupied entry", ErrOverlap, cell)
		}
	}

	// Write the value into the contiguous entry range the remaining bits
	// select (denormalization: one write per replicated slot).
	rb := uint(totalBits - depth*int(t.bits))
	base := (key >> (64 - t.bits)) &^ (1<<(t.bits-rb) - 1)
	count := uint64(1) << (t.bits - rb)
	for i := uint64(0); i < count; i++ {
		slot := cur*uint64(t.fanout) + base + i
		if t.nodes[slot] != 0 {
			return fmt.Errorf("%w: cell %v collides at entry %d", ErrOverlap, cell, base+i)
		}
		t.nodes[slot] = value
	}
	return nil
}

// allocNode appends a zeroed node to the arena and returns its index. The
// arena grows geometrically (doubling) when the pre-sized capacity from
// Build runs out; extending within capacity reuses memory that has never
// been written past len, so the new node needs no explicit clearing.
func (t *Trie) allocNode() uint64 {
	idx := uint64(len(t.nodes) / t.fanout)
	if cap(t.nodes)-len(t.nodes) < t.fanout {
		grown := make([]uint64, len(t.nodes), max(2*cap(t.nodes), len(t.nodes)+t.fanout))
		copy(grown, t.nodes)
		t.nodes = grown
	}
	t.nodes = t.nodes[:len(t.nodes)+t.fanout]
	return idx
}

// encodeRefs produces the tagged entry value for a reference set: inlined
// payloads for one or two references, a lookup-table offset otherwise.
func (b *builder) encodeRefs(refs []supercover.Ref) (uint64, error) {
	for _, r := range refs {
		if r.PolygonID > supercover.MaxPolygonID {
			return 0, fmt.Errorf("%w: id %d", ErrPolygonID, r.PolygonID)
		}
	}
	if !b.noInline {
		switch len(refs) {
		case 1:
			return uint64(payload(refs[0]))<<2 | tagOne, nil
		case 2:
			return uint64(payload(refs[1]))<<33 | uint64(payload(refs[0]))<<2 | tagTwo, nil
		}
	}
	off, err := b.internRefs(refs)
	if err != nil {
		return 0, err
	}
	return uint64(off)<<2 | tagOffset, nil
}

// payload encodes one reference as a 31-bit value: polygonID<<1 | trueHit.
func payload(r supercover.Ref) uint32 {
	p := r.PolygonID << 1
	if r.Interior {
		p |= 1
	}
	return p
}

// internRefs appends the reference set to the lookup table, reusing an
// existing run when an identical set was stored before ("cells often
// reference the same set of polygons", paper §II).
func (b *builder) internRefs(refs []supercover.Ref) (uint32, error) {
	b.keyBuf = b.keyBuf[:0]
	for _, r := range refs {
		p := payload(r)
		b.keyBuf = append(b.keyBuf, byte(p), byte(p>>8), byte(p>>16), byte(p>>24))
	}
	if off, ok := b.tableIndex[string(b.keyBuf)]; ok {
		return off, nil
	}
	t := b.t
	off := uint64(len(t.table))
	// The encoded run is numTrue + trues + numCand + cands.
	var trues, cands []uint32
	for _, r := range refs {
		if r.Interior {
			trues = append(trues, r.PolygonID)
		} else {
			cands = append(cands, r.PolygonID)
		}
	}
	t.table = append(t.table, uint32(len(trues)))
	t.table = append(t.table, trues...)
	t.table = append(t.table, uint32(len(cands)))
	t.table = append(t.table, cands...)
	if uint64(len(t.table)) > payloadMax {
		return 0, ErrTableLimit
	}
	b.tableIndex[string(b.keyBuf)] = uint32(off)
	return uint32(off), nil
}

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
		entry := t.nodes[cur*uint64(t.fanout)+idx]
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
	// path (fanout 4: 30 chunks of 2 bits).
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
			entry := t.nodes[cur*uint64(t.fanout)+idx]
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
		entry := t.nodes[cur*uint64(t.fanout)+idx]
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
// Table I of the paper reports.
type Stats struct {
	Fanout         int
	NumNodes       int   // allocated nodes, excluding the sentinel
	TrieBytes      int64 // node arena size
	TableBytes     int64 // lookup table size
	TableEntries   int   // uint32 words in the lookup table
	InlinedValues  int   // entries holding 1–2 inlined payloads
	OffsetValues   int   // entries referencing the lookup table
	ChildPointers  int   // entries referencing child nodes
	MaxDepth       int   // deepest node depth observed (root = 1)
	RootSkipLevels int   // grid levels compressed at the root (max across faces)
	TotalBytes     int64 // TrieBytes + TableBytes
}

// ComputeStats scans the arena and summarizes the trie.
func (t *Trie) ComputeStats() Stats {
	s := Stats{
		Fanout:     t.fanout,
		NumNodes:   len(t.nodes)/t.fanout - 1,
		TrieBytes:  int64(len(t.nodes)) * 8,
		TableBytes: int64(len(t.table)) * 4,
	}
	s.TableEntries = len(t.table)
	s.TotalBytes = s.TrieBytes + s.TableBytes
	for i := t.fanout; i < len(t.nodes); i++ { // skip sentinel node
		switch t.nodes[i] & tagMask {
		case tagChild:
			if t.nodes[i] != 0 {
				s.ChildPointers++
			}
		case tagOne, tagTwo:
			s.InlinedValues++
		default:
			s.OffsetValues++
		}
	}
	for face := 0; face < cellid.NumFaces; face++ {
		if t.roots[face] != 0 {
			if d := t.depthBelow(t.roots[face]); d > s.MaxDepth {
				s.MaxDepth = d
			}
			if l := int(t.rootSkip[face]) / 2; l > s.RootSkipLevels {
				s.RootSkipLevels = l
			}
		}
	}
	return s
}

// depthBelow returns the node depth of the subtree rooted at node index n.
// The traversal keeps an explicit heap stack instead of recursing: a
// deserialized trie is only validated for in-range forward child pointers,
// so an adversarial file can chain thousands of single-child nodes, and
// one goroutine stack frame per level would let ComputeStats overflow on
// input that lookups themselves handle fine.
func (t *Trie) depthBelow(n uint64) int {
	type frame struct {
		node  uint64
		depth int
	}
	stack := []frame{{n, 1}}
	maxDepth := 1
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.depth > maxDepth {
			maxDepth = f.depth
		}
		base := f.node * uint64(t.fanout)
		for _, e := range t.nodes[base : base+uint64(t.fanout)] {
			if e != 0 && e&tagMask == tagChild {
				stack = append(stack, frame{e >> 2, f.depth + 1})
			}
		}
	}
	return maxDepth
}
