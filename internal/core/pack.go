package core

import (
	"fmt"
	"slices"
)

// packer lays out the leaf region of the arena: the distinct code
// blocks and palettes of the leaves, in breadth-first first-use order, as a
// greedy shortest common superstring of words (Tarhio & Ukkonen, TCS 57,
// 1988), deterministic in the blocks' words and that order alone:
//
//  1. a block equal to a top-region code block of a width it is used at is
//     named there;
//  2. a palette of at most maxContained words that occurs inside a longer
//     palette is named inside the first such palette, at the first place;
//  3. the rest are chained by suffix/prefix overlaps, longest first, from
//     maxOverlap words down to one: in first-use order, a block without a
//     successor takes as its successor the first block, in first-use order,
//     that has no predecessor, is not already in its chain, and begins with
//     the block's last k words — looking at no more than maxCandidates of
//     the blocks whose first k words hash alike, past the front ones already
//     taken, so that a forged arena full of colliding hashes costs no more
//     than a real one;
//  4. chains are emitted in the first-use order of their first blocks, each
//     block after the first starting k words before the end of the one
//     before it.
//
// The blocks are read where they lie in the arena being relaid out, src.
//
// These steps, their bounds and the end hashes that group the candidates of
// step 3 (scramble and hashP, see hashEnds) define the packed layout, and
// with it which index files of versions 13 and 14 load: changing any of
// them changes the arena of some trie, so it needs a new index version.
// TestPackerPins pins them on blocks that make each bound bind.
//
// Every distinct leaf block of a packed arena is named at a top-region code
// block (distinct blocks at distinct ones), or inside another block (and is
// then no longer than maxContained words), or emitted, sharing at most
// maxOverlap of its words with the block before it. So the blocks' words
// past their first maxOverlap sum to at most the arena's length, and a
// check that finds more refuses the arena as its leaves are added (see
// budget), before it packs anything.
type packer struct {
	src []uint64
	// budget is what remains of that sum's bound: the arena's length, for
	// a check, less each block's words past maxOverlap.
	budget int
	blocks []leafBlock
	set    idTable // the blocks, by their words
	refs   []leafRef
	// taken has bit id set once block id has a predecessor: some block
	// overlaps into it.
	taken []uint64
	// scratch keys what contain and each round of chain look up.
	scratch idTable
	// pre[k-1] and suf[k-1] hold each block's end hashes (see hashEnds).
	pre, suf [maxOverlap][]uint32
}

// leafBlock is one distinct leaf block, the words src[start:start+n], and
// its packing state.
type leafBlock struct {
	start, n uint32
	// widths has bit w-1 set for each code width w the block is used at.
	widths uint8
	// placed is set once pos is final: named in the top region, or emitted.
	placed bool
	// in is the containing block + 1 (0: none), off the offset in it.
	in, off uint32
	// next is the successor + 1 in the block's chain, overlap the words
	// they share.
	next, overlap uint32
	// root is the union-find parent among chains; same links the blocks of
	// one k-word prefix in first-use order and last is the last of them
	// (kept on the first), within one round.
	root, same, last uint32
	pos              uint32
}

// leafRef is one child entry naming a leaf: its arena word, the leaf's code
// block and palette, and its code width.
type leafRef struct {
	at, code, pal uint32
	w             uint8
}

// Packing bounds: the longest block named inside another, the longest
// suffix/prefix overlap tried, and the most blocks one overlap lookup looks
// at. Longer blocks and overlaps are rare on real maps, and on the census
// map every lookup that links finds its block among the first four it looks
// at (the first two at 60 m), so the bound changes nothing there.
const (
	maxContained  = 4
	maxOverlap    = 8
	maxCandidates = 8
)

// reserve sizes an empty packer for n blocks.
func (p *packer) reserve(n int) {
	p.blocks = make([]leafBlock, 0, n)
	p.refs = make([]leafRef, 0, n*2/3)
	p.set.reset(n)
}

// add records a leaf: the entry at arena word at names it, its code block is
// the n words at src[codes:] in w-bit codes, its palette the d at
// src[pal:]. It reports false once the blocks exceed the budget.
func (p *packer) add(at, codes, n, pal, d, w uint64) bool {
	c := p.intern(codes, n)
	p.blocks[c].widths |= 1 << (w - 1)
	p.refs = append(p.refs, leafRef{at: uint32(at), code: c, pal: p.intern(pal, d), w: uint8(w)})
	return p.budget >= 0
}

// intern returns the id of the block holding the n words at src[start:],
// adding it if it is new.
func (p *packer) intern(start, n uint64) uint32 {
	words := p.src[start : start+n]
	h := wordsHash(words)
	i, id, found := p.set.find(h, func(id uint32) bool {
		b := &p.blocks[id]
		return b.start == uint32(start) && b.n == uint32(n) || slices.Equal(p.words(id), words)
	})
	if found {
		return id
	}
	id = uint32(len(p.blocks))
	p.blocks = append(p.blocks, leafBlock{start: uint32(start), n: uint32(n), root: id})
	p.set.put(i, h, id)
	p.budget -= max(0, int(n)-maxOverlap)
	return id
}

// words returns block id's words.
func (p *packer) words(id uint32) []uint64 {
	b := &p.blocks[id]
	return p.src[b.start : b.start+b.n]
}

// free reports whether block id is still to be emitted in a chain: neither
// named in the top region nor inside another block.
func (p *packer) free(id uint32) bool { b := &p.blocks[id]; return !b.placed && b.in == 0 }

// palette reports whether block id is a free block used only as a palette.
func (p *packer) palette(id uint32) bool { return p.blocks[id].widths == 0 && p.free(id) }

// isTaken reports whether block id has a predecessor.
func (p *packer) isTaken(id uint32) bool { return p.taken[id>>6]>>(id&63)&1 != 0 }

// pack names or emits every leaf block after the top region, arena, and
// returns the whole arena, with every child entry naming a leaf set. If
// check is set it stores nothing: it reports where src departs from that
// arena, if anywhere, and returns src. Each block is read where the first
// leaf naming it names it, so once every leaf's entry is the one the layout
// gives, every block lies where the layout puts it, and the leaf region is
// the layout's if it ends where the arena ends.
func (p *packer) pack(arena []uint64, top *blockSet, check bool) ([]uint64, error) {
	bs := p.blocks
	p.taken = make([]uint64, (len(bs)+63)/64)
	// tops filters the top-region blocks' first words, sparing most code
	// blocks the hash of a lookup.
	var tops [64]uint64
	for _, b := range top.blocks {
		f := scramble(arena[b>>blockStart]) >> 52
		tops[f>>6] |= 1 << (f & 63)
	}
	for id := range bs {
		b := &bs[id]
		if b.widths == 0 {
			continue
		}
		if f := scramble(p.src[b.start]) >> 52; tops[f>>6]>>(f&63)&1 == 0 {
			continue
		}
		for kind := range uint64(8) { // code blocks of width kind+1
			if b.widths>>kind&1 == 0 {
				continue
			}
			if first, found := top.lookup(arena, p.words(uint32(id)), kind); found {
				b.pos, b.placed = uint32(first), true
				break
			}
		}
	}
	p.contain()
	p.overlaps()
	// The leaf region's size, to allocate the arena once, or to check it.
	end := uint32(len(arena)) // where the next chain starts
	size := len(arena)
	for id := range bs {
		if p.free(uint32(id)) {
			size += int(bs[id].n - bs[id].overlap)
		}
	}
	if !check {
		arena = append(make([]uint64, 0, size), arena...)[:size]
	}
	// Emit the chains, in the first-use order of their first blocks: place
	// each block, and, unless checking, store its words (the words it
	// shares with the block before it are equal).
	for id := range bs {
		b := &bs[id]
		if !p.free(uint32(id)) || p.isTaken(uint32(id)) {
			continue
		}
		b.pos, b.placed = end, true
		for {
			if !check {
				copy(arena[b.pos:], p.src[b.start:b.start+b.n])
			}
			if end = b.pos + b.n; b.next == 0 {
				break
			}
			next := &bs[b.next-1]
			next.pos, next.placed = end-b.overlap, true
			b = next
		}
	}
	for _, r := range p.refs {
		e := childEntry(p.pos(r.pal), p.pos(r.code)+uint64(bs[r.code].n), uint64(r.w))
		switch {
		case !check:
			arena[r.at] = e
		case arena[r.at] != e:
			return nil, misplaced(uint64(r.at), arena[r.at], e)
		}
	}
	switch {
	case !check:
		return arena, nil
	case size < len(p.src):
		return nil, trailing(len(p.src) - size)
	case size > len(p.src):
		return nil, fmt.Errorf("core: the packed layout of its trie takes %d words, the arena has %d", size, len(p.src))
	}
	return p.src, nil
}

// pos returns where block id lies in the packed arena.
func (p *packer) pos(id uint32) uint64 {
	off := uint64(0)
	for b := &p.blocks[id]; ; b = &p.blocks[b.in-1] {
		if b.in == 0 {
			return uint64(b.pos) + off
		}
		off += uint64(b.off)
	}
}

// contain names each free palette of at most maxContained words inside the
// first free palette, in first-use order, that holds it in a proper part, at
// the first place there; a block used as a code block counts as one, not as
// a palette. (Leaf palettes hold many the same few entries; code blocks
// rarely hold a palette, and scanning them all too would double the work to
// save a few dozen words on the census map.) A palette named inside one that
// is itself named inside another lies inside that one too, so containers
// need not be emitted themselves: pos follows the chain.
func (p *packer) contain() {
	small := &p.scratch
	small.reset(len(p.blocks) / 4)
	// firsts filters the small palettes' first words, and windows their
	// hashes, so that most places in a container are passed over at a
	// glance.
	var firsts [1 << 6]uint64
	windows := make([]uint64, 1<<(32-filterShift-6))
	for id := range p.blocks {
		if w := p.words(uint32(id)); len(w) <= maxContained && p.palette(uint32(id)) {
			h := wordsHash(w)
			i, _, _ := small.find(h, func(uint32) bool { return false }) // blocks are distinct
			small.put(i, h, uint32(id))
			f := scramble(w[0]) >> 52
			firsts[f>>6] |= 1 << (f & 63)
			mark(windows, uint32(h>>32))
		}
	}
	if small.used == 0 {
		return
	}
	for y := range p.blocks {
		if !p.palette(uint32(y)) {
			continue
		}
		w := p.words(uint32(y))
		for o, first := range w {
			if f := scramble(first) >> 52; firsts[f>>6]>>(f&63)&1 == 0 {
				continue
			}
			h := uint64(0)
			for n := 1; n <= maxContained && o+n <= len(w) && n < len(w); n++ {
				h = mix(h, w[o+n-1])
				hn := finish(h, n)
				if !marked(windows, uint32(hn>>32)) {
					continue
				}
				window := w[o : o+n]
				_, x, found := small.find(hn, func(x uint32) bool { return slices.Equal(p.words(x), window) })
				if found && p.blocks[x].in == 0 {
					p.blocks[x].in, p.blocks[x].off = uint32(y)+1, uint32(o)
				}
			}
		}
	}
}

// overlaps chains the free blocks by their overlaps (step 3 of the packer's
// rule), in rounds of chain from maxOverlap words down to one.
func (p *packer) overlaps() {
	p.hashEnds()
	// tails and heads list the free blocks that may still take a
	// successor and a predecessor, in first-use order.
	var tails []uint32
	for id := range p.blocks {
		if p.free(uint32(id)) && p.blocks[id].n > 1 {
			tails = append(tails, uint32(id))
		}
	}
	heads := slices.Clone(tails)
	filter := make([]uint64, 2<<(32-filterShift-6))
	for _, id := range tails {
		if h := p.suf[maxOverlap-1][id]; h != 0 {
			mark(filter[:len(filter)/2], h)
		}
	}
	for k := maxOverlap; k > 0; k-- {
		tails, heads = p.chain(k, tails, heads, filter)
	}
}

// hashEnds fills pre and suf: for each free block longer than k words and
// each k up to maxOverlap, the hashes of its first and its last k words (0
// for a block no longer than k). The rounds then read them in block order,
// sparing each round a pass over the arena. A run's polynomial hash gains
// its next word by Horner's rule, and a word before it as that word times
// hashP to the power of the run's length.
func (p *packer) hashEnds() {
	n := len(p.blocks)
	all := make([]uint32, 2*maxOverlap*n)
	for k := range p.pre {
		p.pre[k], p.suf[k] = all[2*k*n:(2*k+1)*n], all[(2*k+1)*n:(2*k+2)*n]
	}
	for id := range p.blocks {
		if !p.free(uint32(id)) {
			continue
		}
		w := p.words(uint32(id))
		var pre, suf uint64
		for k := 1; k < len(w) && k <= maxOverlap; k++ {
			pre, suf = mix(pre, w[k-1]), suf+scramble(w[len(w)-k])*hashPowers[k-1]
			p.pre[k-1][id], p.suf[k-1][id] = uint32(pre>>32)|1, uint32(suf>>32)|1
		}
	}
}

// chain runs the round of overlap k over tails and heads, the blocks that
// may still take a successor and a predecessor, and returns them without
// the ones it linked. It groups the heads' k-word prefixes by hash, in
// lists in first-use order, and gives each tail the first head of its list
// that may follow it (see link). filter holds two one-hash Bloom filters: of
// the tails' suffixes, which spares the table the many prefixes that match
// none, and of the prefixes entered, which spares it the many suffixes. The
// round before marks the first (overlaps, before the first round), and this
// one marks it for the next as it passes over the tails that remain.
func (p *packer) chain(k int, tails, heads []uint32, filter []uint64) ([]uint32, []uint32) {
	bs := p.blocks
	pres, sufs := p.pre[k-1], p.suf[k-1]
	sufFilter, preFilter := filter[:len(filter)/2], filter[len(filter)/2:]
	clear(preFilter)
	prefixes := &p.scratch
	prefixes.reset(len(heads) / 8)
	j := 0
	for _, id := range heads {
		if p.isTaken(id) {
			continue
		}
		heads[j] = id
		j++
		h := pres[id]
		if h == 0 || !marked(sufFilter, h) {
			continue
		}
		mark(preFilter, h)
		bs[id].same = 0
		i, first, found := prefixes.find(uint64(h)<<32, nil)
		if found {
			bs[bs[first].last].same = id + 1
			bs[first].last = id
			continue
		}
		bs[id].last = id
		prefixes.put(i, uint64(h)<<32, id)
	}
	heads = heads[:j]
	clear(sufFilter)
	var next []uint32 // the next round's suffix hashes
	if k > 1 {
		next = p.suf[k-2]
	}
	j = 0
	for _, id := range tails {
		if h := sufs[id]; h != 0 && marked(preFilter, h) && p.link(id, h, k, prefixes) {
			continue
		}
		tails[j] = id
		j++
		if next != nil && next[id] != 0 {
			mark(sufFilter, next[id])
		}
	}
	return tails[:j], heads
}

// link gives the tail id, a block without a successor whose last k words
// hash to h, the first head in its prefixes list, among the first
// maxCandidates, that has no predecessor, is not the first block of the
// tail's own chain (union-find: a link never closes a cycle), and begins
// with those words — hashes can agree by chance, so only here are words
// compared. It reports whether it linked.
func (p *packer) link(id, h uint32, k int, prefixes *idTable) bool {
	bs := p.blocks
	i, c, found := prefixes.find(uint64(h)<<32, nil)
	if !found {
		return false
	}
	// Taken blocks leave the front of the list for good.
	for p.isTaken(c) && bs[c].same != 0 {
		c = bs[c].same - 1
	}
	prefixes.slots[i] = prefixes.slots[i]>>32<<32 | uint64(c+1)
	w := p.words(id)
	key := w[len(w)-k:]
	ra := p.root(id)
	for c1, tries := c+1, 0; c1 != 0 && tries < maxCandidates; c1, tries = bs[c1-1].same, tries+1 {
		c := c1 - 1
		if p.isTaken(c) {
			continue
		}
		rc := p.root(c)
		if rc == ra || !slices.Equal(p.words(c)[:k], key) {
			continue
		}
		bs[id].next, bs[id].overlap = c+1, uint32(k)
		p.taken[c>>6] |= 1 << (c & 63)
		bs[rc].root = ra
		return true
	}
	return false
}

// filterShift selects the top hash bits that index a packer filter of 2^18
// bits, 32 KiB: at most one in ten places of the census map's ends are set.
const filterShift = 32 - 18

// mark adds a 32-bit hash to a filter, and marked tests for it.
func mark(filter []uint64, h uint32) { b := h >> filterShift; filter[b>>6] |= 1 << (b & 63) }

func marked(filter []uint64, h uint32) bool {
	b := h >> filterShift
	return filter[b>>6]>>(b&63)&1 != 0
}

// root returns the union-find root of block id's chain, halving the path.
func (p *packer) root(id uint32) uint32 {
	bs := p.blocks
	for bs[id].root != id {
		bs[id].root = bs[bs[id].root].root
		id = bs[id].root
	}
	return id
}

// idTable is an open-addressed hash table of block ids: each slot holds the
// top half of a key's 64-bit hash, which also picks its place, and the id
// + 1 in the bottom half, 0 when empty.
type idTable struct {
	slots []uint64
	used  int
}

// reset empties the table, sized for n ids, reusing its slots where they
// suffice.
func (tb *idTable) reset(n int) {
	size := 64
	for 3*size < 4*n {
		size *= 2
	}
	if len(tb.slots) >= size {
		clear(tb.slots)
	} else {
		tb.slots = make([]uint64, size)
	}
	tb.used = 0
}

// find returns the slot of the id whose key hashes to h and for which eq,
// if given, holds, or the free slot where such an id would go.
func (tb *idTable) find(h uint64, eq func(id uint32) bool) (slot uint64, id uint32, found bool) {
	mask := uint64(len(tb.slots) - 1)
	for i := h >> 32 & mask; ; i = (i + 1) & mask {
		s := tb.slots[i]
		if s == 0 {
			return i, 0, false
		}
		if id := uint32(s) - 1; s>>32 == h>>32 && (eq == nil || eq(id)) {
			return i, id, true
		}
	}
}

// put stores id, whose key hashes to h, in the free slot i find returned,
// doubling the table when it gets three quarters full.
func (tb *idTable) put(i, h uint64, id uint32) {
	tb.slots[i] = h>>32<<32 | uint64(id+1)
	if tb.used++; 4*tb.used <= 3*len(tb.slots) {
		return
	}
	old := tb.slots
	tb.slots = make([]uint64, 2*len(old))
	mask := uint64(len(tb.slots) - 1)
	for _, s := range old {
		if s != 0 {
			i := s >> 32 & mask
			for tb.slots[i] != 0 {
				i = (i + 1) & mask
			}
			tb.slots[i] = s
		}
	}
}

// mix folds one word into the running hash of a word run, a polynomial in
// hashP over the scrambled words, and finish completes the hash of a run of
// n words; wordsHash is the two together. The hash of a run extends word by
// word, which lets contain hash every window of a block at one start in one
// pass, and hashEnds every end of a block.
func mix(h, w uint64) uint64 { return h*hashP + scramble(w) }

func scramble(w uint64) uint64 { return (w ^ w>>31) * 0xff51afd7ed558ccd }

func finish(h uint64, n int) uint64 {
	h = (h ^ uint64(n)) * 0xc4ceb9fe1a85ec53
	return h ^ h>>29
}

func wordsHash(words []uint64) uint64 {
	h := uint64(0)
	for _, w := range words {
		h = mix(h, w)
	}
	return finish(h, len(words))
}

// hashP is the odd base of the polynomial hash, and hashPowers[i] is
// hashP^i.
const hashP = 0x9e3779b97f4a7c15

var hashPowers = func() (pow [maxOverlap]uint64) {
	pow[0] = 1
	for i := 1; i < maxOverlap; i++ {
		pow[i] = pow[i-1] * hashP
	}
	return pow
}()
