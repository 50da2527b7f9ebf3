package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Relayout lays the node arena out afresh. It reads nothing but the logical
// trie — each node's codes and palette, reached from the face roots — so the
// arena it produces is the canonical one for that trie, and relaying out an
// arena it laid out is the identity: what lets TrieFromFlat demand a file's
// arena equal it word for word (see checkLayout), and relaid tries
// round-trip through the serializer byte-identically. Codes, payloads, the
// lookup table, root skips, and all lookup results are untouched.
//
// Nodes are placed breadth-first after the sentinel: face roots first, then
// every depth-2 node, and so on, so the hottest (shallowest) levels end up
// contiguous at the front of the arena. The builder completes children
// before their parents, which leaves the heavily shared top levels at the
// far end of every subtree; after relayout the top of every walk reads from
// a compact prefix that stays cache-resident under batch probing, so only
// the deep, sparse levels can miss.
//
// The face roots and the nodes with children form the top region: each
// stores its code block unless an equal block of the same code width is
// stored there already, which it then names, and then its palette. The
// leaves are deferred: their distinct code blocks and palettes follow in one
// leaf region, a greedy superstring of them (see packer) in which a block
// may start inside another, or overlap the one before it, where their words
// agree. A leaf code block equal to one in the top region is named there.
//
// Nodes unreachable from any face root are dropped. It returns the number of
// nodes walks reach, including the sentinel — a shared leaf counts once per
// entry naming it — and records them and the words they take unshared (see
// Trie.unshared).
func (t *Trie) Relayout() int {
	nodes, _ := t.relayout(false)
	return nodes
}

// checkLayout validates the trie for TrieFromFlat (see validateStructure): it
// reports the first node whose content is malformed, or the first place
// where the arena and roots differ from those Relayout would make of
// them, if any, without making them. The frame must have passed
// validateFrame.
//
// A check stores no word. It walks the nodes in Relayout's order, checking
// each before it reads it, and where Relayout would store a block at the
// arena's end it takes the block to lie there already: that holds exactly
// when the entry naming the node is the one the layout gives, which the
// check compares next. So the first entry that differs is the first place
// the arena departs from its layout, and the check stops there, or as soon
// as the layout would pass the arena's end — a forged arena costs no more
// than its own words, however many nodes its entries name.
func (t *Trie) checkLayout() error {
	_, err := t.relayout(true)
	return err
}

// errPastEnd is a check's finding that the layout is longer than the arena.
var errPastEnd = errors.New("core: layout past the arena's end")

// relayout is Relayout, or, if check is set, checkLayout.
func (t *Trie) relayout(check bool) (int, error) {
	src := t.nodes
	// One node in ten bears children, and the leaves' blocks go to the
	// packer: the top region takes well under an eighth of the words.
	var stored blockSet
	stored.reserve(len(src) / 128)
	leaves := packer{src: src, budget: math.MaxInt}
	leaves.reserve(len(src) / 8)
	sentinel := int(codeWords(t.fanout, 1) + 1)
	var arena []uint64
	var v validator
	if check {
		arena = src[:sentinel:sentinel] // validateFrame checked it is zero
		leaves.budget = len(src)
	} else {
		arena = make([]uint64, sentinel, max(len(src)/8, sentinel))
	}
	// emit stores words at the arena's end, or, checking, takes them to lie
	// there in the given arena.
	emit := func(words []uint64) error {
		if !check {
			arena = append(arena, words...)
			return nil
		}
		end := len(arena) + len(words)
		if end > len(src) {
			return errPastEnd
		}
		arena = src[:end:end]
		return nil
	}
	// queue holds the palette offset and size of each placed node whose
	// palette holds child entries, and its depth, in breadth-first order;
	// the child entries are replaced (checked) as the queue reaches them.
	type queued struct {
		pal, d uint64
		depth  int
	}
	var queue []queued
	nodes, unshared := 1, sentinel
	// place lays out the node old names, depth nodes deep, which the entry
	// at arena[at] (the root's, for at 0) is to name, and returns that
	// entry: 0 for a leaf, named once the leaf region is packed.
	place := func(old, at uint64, depth int) (uint64, error) {
		nodes++
		var palette []uint64
		var children bool
		if check {
			d, ch, err := t.validateStructure(&v, old, depth)
			if err != nil {
				return 0, err
			}
			palette, children = src[paletteAt(old):paletteAt(old)+d], ch
		} else {
			palette = t.palette(old)
			children = slices.ContainsFunc(palette, isChild)
		}
		w, codes := widthOf(old), t.codes(old)
		unshared += len(codes) + len(palette)
		if at != 0 && !children {
			if !leaves.add(at, codeEnd(old)-uint64(len(codes)), uint64(len(codes)), paletteAt(old), uint64(len(palette)), w) {
				return 0, errPastEnd
			}
			return 0, nil
		}
		start, found := stored.intern(arena, codes, uint64(len(arena)), w-1)
		if !found {
			if err := emit(codes); err != nil {
				return 0, err
			}
		}
		end, pal := start+uint64(len(codes)), uint64(len(arena))
		if err := emit(palette); err != nil {
			return 0, err
		}
		if children {
			queue = append(queue, queued{pal, uint64(len(palette)), depth})
		}
		return childEntry(pal, end, w), nil
	}
	var roots [len(t.roots)]uint64
	for f, root := range t.roots {
		if root == 0 {
			continue
		}
		e, err := place(root, 0, 1)
		switch {
		case err == errPastEnd:
			return 0, fmt.Errorf("core: face %d root %#x, the layout names a node past the arena's %d words", f, root, len(src))
		case err != nil:
			return 0, err
		case check && e != root:
			return 0, fmt.Errorf("core: face %d root %#x, the layout names %#x", f, root, e)
		}
		roots[f] = e
	}
	for qi := 0; qi < len(queue); qi++ {
		q := queue[qi]
		for i := q.pal; i < q.pal+q.d; i++ {
			old := arena[i]
			if !isChild(old) {
				continue
			}
			e, err := place(old, i, q.depth+1) // place appends: index arena afterwards
			switch {
			case err == errPastEnd:
				return 0, fmt.Errorf("core: arena word %d is %#x, the layout puts the nodes named so far past the arena's %d words", i, old, len(src))
			case err != nil:
				return 0, err
			case e == 0: // a leaf
			case !check:
				arena[i] = e
			case e != old:
				return 0, misplaced(i, old, e)
			}
		}
	}
	arena, err := leaves.pack(arena, &stored, check)
	if err != nil {
		return 0, err
	}
	if !check {
		t.nodes, t.roots = arena, roots
	}
	t.reached, t.unshared = nodes-1, unshared
	return nodes, nil
}

// misplaced explains a check's finding that arena word at holds an entry
// other than the one the layout puts there.
func misplaced(at, got, want uint64) error {
	return fmt.Errorf("core: arena word %d is %#x, the layout puts %#x there", at, got, want)
}

// trailing explains a check's finding that the layout ends n words before
// the arena.
func trailing(n int) error {
	return fmt.Errorf("core: %d arena words lie past the last reachable node", n)
}

// paletteKind is the blockSet kind of palettes; code blocks of w-bit codes
// are of kind w-1, 0 to 7.
const paletteKind = 8

// blockSet interns arena blocks by content: runs of words, each named by its
// start, its length and its kind — a code width or a palette. Relayout stores
// a top-region code block only if the set does not hold an equal one. It keys an idTable by the blocks' hashes, so a probe
// reads a block's words in the arena only once half the hash has matched.
type blockSet struct {
	ids    idTable
	blocks []uint64 // by id: start<<blockStart | kind<<9 | length-1
}

// reserve sizes an empty set for n blocks, sparing the rehashes of growing
// to them.
func (s *blockSet) reserve(n int) {
	s.ids.reset(n)
	s.blocks = make([]uint64, 0, n)
}

// intern returns the start of the block in the set equal to words and of
// the given kind, with found true; or, with found false, adds words as the
// block of that kind at arena[start:], where the caller stores them next,
// and returns start.
func (s *blockSet) intern(arena, words []uint64, start, kind uint64) (first uint64, found bool) {
	h := blockHash(words, kind)
	i, first, found := s.find(arena, words, kind, h)
	if !found {
		s.ids.put(i, h, uint32(len(s.blocks)))
		s.blocks = append(s.blocks, start<<blockStart|kind<<9|uint64(len(words)-1))
		first = start
	}
	return first, found
}

// lookup returns the start of the block in the set whose words and kind
// equal words and kind.
func (s *blockSet) lookup(arena, words []uint64, kind uint64) (uint64, bool) {
	_, first, found := s.find(arena, words, kind, blockHash(words, kind))
	return first, found
}

// find is lookup given the words' hash, returning too the idTable slot.
func (s *blockSet) find(arena, words []uint64, kind, h uint64) (slot, first uint64, found bool) {
	want := kind<<9 | uint64(len(words)-1)
	slot, _, found = s.ids.find(h, func(id uint32) bool {
		b := s.blocks[id]
		first = b >> blockStart
		return b&(1<<blockStart-1) == want && slices.Equal(arena[first:first+uint64(len(words))], words)
	})
	return slot, first, found
}

// blockStart is the shift of a blockSet block's start, past its 4-bit kind
// and 9-bit length.
const blockStart = 13

// blockHash mixes a block's words and kind into a hash.
func blockHash(words []uint64, kind uint64) uint64 { return wordsHash(words) ^ kind*0x9e3779b97f4a7c15 }
