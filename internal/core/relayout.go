package core

import (
	"math/bits"
	"slices"
)

// Relayout lays the node arena out afresh, breadth-first: face roots first,
// then every depth-2 node, and so on — the hottest (shallowest) levels end up
// contiguous at the front of the arena. The builder completes children
// before their parents, which leaves the heavily shared top levels at the
// far end of every subtree; after relayout the top of every walk reads from
// a compact prefix that stays cache-resident under batch probing, so only
// the deep, sparse levels can miss.
//
// On the way it shares blocks (see the package comment): placing a node, it
// stores the node's code block unless an equal block of the same code width
// is stored already, and then its palette unless the palette is shareable —
// child-free and not a face root's — and an equal one is stored already.
// Whatever is not stored is named where it was stored first. Codes, payloads,
// the lookup table, root skips, and all lookup results are untouched, and the
// pass is idempotent: relaying out an arena it laid out is the identity,
// which is what lets relaid tries round-trip through the serializer
// byte-identically.
//
// Nodes unreachable from any face root are dropped. It returns the number of
// nodes walks reach, including the sentinel — a shared leaf counts once per
// entry naming it.
func (t *Trie) Relayout() int {
	arena := make([]uint64, codeWords(t.fanout, 0)+1, len(t.nodes)) // the sentinel: zero
	var stored blockSet
	stored.reserve(len(t.nodes) / 8) // real maps store about one block per 10 words
	// queue holds the palette offset and size of each placed node whose
	// palette holds child entries, in breadth-first order; the child
	// entries are replaced as the queue reaches them.
	type queued struct{ pal, d uint64 }
	var queue []queued
	nodes := 1
	place := func(old uint64, root bool) uint64 {
		nodes++
		lw := old >> 2 & 3
		codes, palette := t.codes(old), t.palette(old)
		start := uint64(len(arena))
		arena = append(arena, codes...)
		if first, found := stored.intern(arena, start, uint64(len(codes)), lw); found {
			arena, start = arena[:start], first
		}
		end, pal := start+uint64(len(codes)), uint64(len(arena))
		arena = append(arena, palette...)
		children := slices.ContainsFunc(palette, isChild)
		if !root && !children {
			if first, found := stored.intern(arena, pal, uint64(len(palette)), paletteKind); found {
				arena, pal = arena[:pal], first
			}
		}
		if children {
			queue = append(queue, queued{pal, uint64(len(palette))})
		}
		return childEntry(pal, end, lw)
	}
	var roots [len(t.roots)]uint64
	for f, root := range t.roots {
		if root != 0 {
			roots[f] = place(root, true)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		q := queue[qi]
		for i := q.pal; i < q.pal+q.d; i++ {
			if e := arena[i]; isChild(e) {
				e = place(e, false) // place appends: index arena afterwards
				arena[i] = e
			}
		}
	}
	if cap(arena)-len(arena) > len(arena)/8 {
		arena = slices.Clone(arena) // sharing left most of the room unused
	}
	t.nodes, t.roots, t.reached = arena, roots, nodes-1
	return nodes
}

// paletteKind is the blockSet kind of palettes; code blocks use their width's
// log2, 0 to 3.
const paletteKind = 4

// blockSet interns arena blocks by content: runs of words, each named by its
// start, its length and its kind — a code width or a palette. Relayout stores
// a block only if the set does not hold an equal one; validateStructure
// checks that a stored block is the first of its words and that a named one
// is. It is an open-addressed hash table of packed slots whose words it
// compares in the arena itself, after a 22-bit fingerprint of the hash has
// matched, so a probe rarely reads the arena.
type blockSet struct {
	slots []uint64 // start<<34 | fingerprint<<12 | kind<<9 | length-1; 0 is empty (no block starts at 0)
	used  int
}

// reserve sizes an empty set for n blocks, sparing the rehashes of growing
// to them.
func (s *blockSet) reserve(n int) {
	size := 1024
	for 3*size < 4*n {
		size *= 2
	}
	s.slots = make([]uint64, size)
}

// intern looks up the block of n words of the given kind at arena[start:].
// It returns the start of an equal block already in the set, with found
// true, or adds this block and returns start.
func (s *blockSet) intern(arena []uint64, start, n, kind uint64) (first uint64, found bool) {
	words := arena[start : start+n]
	h := blockHash(words, kind)
	if first, found = s.find(arena, words, kind, h); found {
		return first, true
	}
	if 4*(s.used+1) > 3*len(s.slots) {
		s.grow(arena)
	}
	s.put(h, start<<34|h>>42<<12|kind<<9|(n-1))
	s.used++
	return start, false
}

// lookup returns the start of the block in the set whose words and kind
// equal words and kind.
func (s *blockSet) lookup(arena, words []uint64, kind uint64) (uint64, bool) {
	return s.find(arena, words, kind, blockHash(words, kind))
}

// find is lookup given the words' hash.
func (s *blockSet) find(arena, words []uint64, kind, h uint64) (uint64, bool) {
	if len(s.slots) == 0 {
		return 0, false
	}
	want := h>>42<<12 | kind<<9 | uint64(len(words)-1)
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; s.slots[i] != 0; i = (i + 1) & mask {
		if slot := s.slots[i]; slot&(1<<34-1) == want {
			if start := slot >> 34; slices.Equal(arena[start:start+uint64(len(words))], words) {
				return start, true
			}
		}
	}
	return 0, false
}

// put stores a slot in the first free place of its probe sequence.
func (s *blockSet) put(h, slot uint64) {
	mask := uint64(len(s.slots) - 1)
	i := h & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = slot
}

// grow doubles the table (to 1 024 slots at first) and rehashes every block
// from its words in the arena.
func (s *blockSet) grow(arena []uint64) {
	old := s.slots
	s.slots = make([]uint64, max(1024, 2*len(old)))
	for _, slot := range old {
		if slot != 0 {
			start, kind, n := slot>>34, slot>>9&7, slot&(1<<9-1)+1
			s.put(blockHash(arena[start:start+n], kind), slot)
		}
	}
}

// blockHash mixes a block's words and kind into a hash, two lanes at a
// time.
func blockHash(words []uint64, kind uint64) uint64 {
	a, b := kind, uint64(len(words))
	for ; len(words) >= 2; words = words[2:] {
		a = bits.RotateLeft64(a^words[0], 23) * 0xff51afd7ed558ccd
		b = bits.RotateLeft64(b^words[1], 29) * 0xc4ceb9fe1a85ec53
	}
	if len(words) == 1 {
		a = bits.RotateLeft64(a^words[0], 23) * 0xff51afd7ed558ccd
	}
	h := (a ^ bits.RotateLeft64(b, 32)) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}
