package core

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/supercover"
)

// Source is a prefix-free super covering handed over cell by cell: a
// merge's sorted input, merged as it is read (supercover.Sorted), or a
// materialized supercover.SuperCovering.
type Source interface {
	// Cells calls fn for each cell in ascending id order with its
	// references, which fn must not modify or keep, and stops at fn's
	// first error.
	Cells(fn func(cell cellid.ID, refs []supercover.Ref) error) error
	// NumRefs counts the covering's (cell, reference) pairs; it sizes
	// the arena.
	NumRefs() int
}

// Stream is a prefix-free super covering produced as the trie builder takes
// it: a Stream calls cell for each cell in ascending id order with its
// references, which cell must not modify or keep, stops at cell's first
// error and returns it. cover.Coverer.Descend is one: it covers a polygon
// set in one descent of the grid and hands each merged cell over as soon as
// no polygon needs it split. supercover.Sorted.Merge is another: it merges
// an ascending run of cells, a compaction's base, into a sorted input.
type Stream func(cell func(cell cellid.ID, refs []supercover.Ref) error) error

// Build constructs a trie from a prefix-free super covering, whose cells
// arrive in ascending id order — for disjoint cells, the order of their key
// paths. A node is therefore complete the moment a cell's path leaves its
// key prefix: the builder keeps one open node per depth as a dense scratch
// of `fanout` slots, palette-codes it into the arena when the path moves on,
// and writes the child entry naming it into its parent's slot. Each face is
// built from the face cell down; when it closes, the open nodes above the
// first that holds anything but the path on — nodes every cell of the face
// lies under — become the face's root skip instead of nodes. Nodes
// land children-first; Relayout then renumbers the arena breadth-first, so
// the hot top levels of every walk occupy a compact arena prefix. No dense
// node outlives its own construction.
//
// The covering is a set of cells merged into one: a delta overlay's
// coverings, sorted (supercover.Sorted, whose forward pass hands each cell
// to the builder as it is produced), or a materialized SuperCovering, which
// builds the same trie. A polygon set's covering needs no merge, and a
// compaction's base needs no sort: BuildStream takes the one from the
// descent that covers it, the other merged into the delta as it is read.
func Build(src Source, cfg Config) (*Trie, error) {
	// A quarter word a reference covers the census map's 0.21 at ε = 60 m;
	// the arena doubles at finer ε, where nodes fill up.
	return laidOut(buildFrom(src.Cells, src.NumRefs()/4, cfg))
}

// BuildStream is Build over a covering produced as it is taken. Its arena
// doubles whenever it fills, starting empty, or, when like is not nil — a
// compaction's base, which its covering merges a delta into —, at the words
// like's builder arena held (see Trie.unshared) and an eighth more for the
// delta's cells, so that it grows at most once.
func BuildStream(s Stream, like *Trie, cfg Config) (*Trie, error) {
	words := 0
	if like != nil {
		words = like.unshared + like.unshared/8
	}
	return laidOut(buildFrom(s, words, cfg))
}

// laidOut lays out a trie a build left in completion order.
func laidOut(t *Trie, err error) (*Trie, error) {
	if err != nil {
		return nil, err
	}
	t.Relayout()
	return t, nil
}

// buildFrom runs the insertion pipeline over a stream into an arena sized
// for words, leaving nodes in completion order (children before parents).
func buildFrom(s Stream, words int, cfg Config) (*Trie, error) {
	b, err := newBuilder(cfg, words)
	if err != nil {
		return nil, err
	}
	if err := s(b.add); err != nil {
		return nil, err
	}
	b.closeFace()
	if uint64(len(b.t.nodes)) > MaxArenaWords {
		return nil, ErrArenaLimit
	}
	return b.t, nil
}

// builder holds build-only state: the lookup-table dedup map and the open
// path of dense scratch nodes.
type builder struct {
	t          *Trie
	tableIndex map[string]uint32
	keyBuf     []byte
	noInline   bool

	// open[d] is the scratch of the node under construction at depth d and
	// via[d] the slot of open[d] that open[d+1] hangs from; depth is the
	// deepest open node, -1 while no face is open. key is the last cell's
	// key: via[d] is its chunk d.
	open  [][]uint64
	via   []uint64
	depth int
	face  int
	key   uint64
	// last is the largest leaf id any added cell covers; an arriving cell
	// reaching back to it overlaps an earlier one or is out of order.
	last cellid.ID
}

// newBuilder returns a builder over an arena holding just the sentinel,
// pre-sized for the given number of words.
func newBuilder(cfg Config, words int) (*builder, error) {
	t, err := newTrie(cfg.Fanout)
	if err != nil {
		return nil, err
	}
	t.nodes = make([]uint64, 0, words+maxFanout/64+1)
	b := &builder{t: t, tableIndex: make(map[string]uint32), noInline: cfg.DisableInlining, depth: -1}
	b.emit(make([]uint64, t.fanout)) // the sentinel, first in the arena
	return b, nil
}

// add stores the reference set of one covering cell. Cells must arrive in
// ascending id order and be pairwise disjoint.
func (b *builder) add(cell cellid.ID, refs []supercover.Ref) error {
	if len(refs) == 0 {
		return fmt.Errorf("%w: cell %v", ErrEmptyRefs, cell)
	}
	level := cell.Level()
	if level == 0 {
		// A face cell has no key bits to index; denormalize to its four
		// children (possible only for degenerate world-spanning input).
		for _, child := range cell.Children() {
			if err := b.add(child, refs); err != nil {
				return err
			}
		}
		return nil
	}
	if uint64(len(b.t.nodes)) > MaxArenaWords {
		// Child entries name offsets below the limit; Relayout only
		// shrinks the arena, so the built one must fit too.
		return ErrArenaLimit
	}
	if cell.RangeMin() <= b.last {
		return fmt.Errorf("%w: cell %v reaches back to leaf %v", ErrOverlap, cell, b.last)
	}
	value, err := b.encodeRefs(refs)
	if err != nil {
		return fmt.Errorf("cell %v: %w", cell, err)
	}

	t := b.t
	face := cell.Face()
	key := cell.PathBits() << 4 // top-align the 60-bit path in 64 bits
	totalBits := 2 * level
	depth := (totalBits - 1) / int(t.bits)

	// Keep the open nodes the cell's path shares, close the rest, then open
	// the path down to the node holding the cell's slots.
	d := 0
	if face != b.face {
		b.closeFace()
	}
	if b.depth < 0 {
		b.face = face
		b.openNode(0)
	} else {
		// The open nodes the path shares are the whole chunks its key
		// shares with the last cell's.
		d = min(bits.LeadingZeros64(key^b.key)/int(t.bits), b.depth, depth)
		b.closeTo(d)
	}
	b.key = key
	for ; d < depth; d++ {
		b.via[d] = key << (uint(d) * t.bits) >> (64 - t.bits)
		b.openNode(d + 1)
	}

	// Fill the contiguous slot range the remaining bits select
	// (denormalization; emit stores the value once, whatever the range).
	rb := uint(totalBits - depth*int(t.bits))
	base := key << (uint(depth) * t.bits) >> (64 - t.bits) &^ (1<<(t.bits-rb) - 1)
	slots := b.open[depth][base : base+1<<(t.bits-rb)]
	for i := range slots {
		slots[i] = value
	}
	b.last = cell.RangeMax()
	return nil
}

// openNode starts an empty node at depth d, now the deepest open one.
func (b *builder) openNode(d int) {
	if d == len(b.open) {
		b.open = append(b.open, make([]uint64, b.t.fanout))
		b.via = append(b.via, 0)
	}
	clear(b.open[d])
	b.depth = d
}

// closeTo completes every open node deeper than d, deepest first, handing
// each one's child entry to its parent's slot.
func (b *builder) closeTo(d int) {
	for ; b.depth > d; b.depth-- {
		b.open[b.depth-1][b.via[b.depth-1]] = b.emit(b.open[b.depth])
	}
}

// closeFace completes the open face, if any, and records its root and its
// root skip. An open node above the deepest whose slots are all empty holds
// nothing but the path on to the next — its slot via is filled only when the
// child closes — so every cell of the face lies under it. The chain of such
// nodes from the face's top is the longest node-aligned key prefix the
// face's cells share that leaves a chunk of every cell's path below it: the
// root skip, whose prefix is the last key's. The node below the chain
// becomes the root, and the chain is never emitted.
func (b *builder) closeFace() {
	if b.depth < 0 {
		return
	}
	c := 0
	for c < b.depth && !slices.ContainsFunc(b.open[c], func(e uint64) bool { return e != 0 }) {
		c++
	}
	b.closeTo(c)
	t := b.t
	skip := uint(c) * t.bits
	t.rootSkip[b.face] = skip
	if skip > 0 {
		t.rootPrefix[b.face] = b.key >> (64 - skip) << (64 - skip)
	}
	t.roots[b.face] = b.emit(b.open[c])
	b.depth = -1
}

// emit appends the palette-coded form of a dense node to the arena and
// returns the child entry naming it.
func (b *builder) emit(slots []uint64) uint64 {
	// A full arena doubles: append's quarter steps would copy an arena that
	// outgrows its first size (finer ε) many times over.
	if n := len(b.t.nodes); cap(b.t.nodes)-n < 2*len(slots) {
		b.t.nodes = slices.Grow(b.t.nodes, n+2*len(slots))
	}
	var e uint64
	b.t.nodes, e = appendNode(b.t.nodes, slots)
	return e
}

// appendNode palette-codes a dense node — one entry per slot — onto arena:
// the code words, last first, then the distinct entries in first-use slot
// order. It returns the extended arena and the child entry naming the node.
func appendNode(arena, slots []uint64) ([]uint64, uint64) {
	var palette [maxFanout]uint64
	var codes [maxFanout]uint8
	c, d := 0, 0
	for i, e := range slots {
		if i == 0 || e != slots[i-1] { // most slots repeat their left neighbour
			for c = 0; c < d && palette[c] != e; c++ {
			}
			if c == d {
				palette[d] = e
				d++
			}
		}
		codes[i] = uint8(c)
	}
	w := codeWidth(d)
	arena = append(arena, make([]uint64, codeWords(len(slots), w))...)
	pal := uint64(len(arena))
	putCodes(arena[pal-codeWords(len(slots), w):pal], codes[:len(slots)], w)
	arena = append(arena, palette[:d]...)
	return arena, childEntry(pal, pal, w)
}

// putCodes writes codes, w bits each, into the code block: slot i's code at
// bit i·w of the code stream, which runs from the block's last word down, a
// code that does not fit a word straddling into the word below.
func putCodes(block []uint64, codes []uint8, w uint64) {
	k := len(block) - 1
	var word, n uint64 // the word being filled, and its bits filled
	for _, c := range codes {
		word |= uint64(c) << n
		if n += w; n >= 64 {
			block[k], k = word, k-1
			n -= 64
			word = uint64(c) >> (w - n) // the bits past the word, none if n is 0
		}
	}
	if n > 0 {
		block[k] = word
	}
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
