package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"slices"

	"github.com/actindex/act/internal/cellid"
)

// Word-level output and structural validation of flat trie data (see
// flat.go for the format itself).

var crcTable = crc64.MakeTable(crc64.ECMA)

// writeWords streams words as little-endian bytes through a fixed scratch
// buffer, avoiding binary.Write's full-size temporary allocation.
func writeWords[W uint32 | uint64](w io.Writer, words []W) error {
	var buf [8 * 8192]byte
	for len(words) > 0 {
		n := min(len(words), 8192)
		b := buf[:0]
		switch ws := any(words[:n]).(type) {
		case []uint64:
			for _, v := range ws {
				b = binary.LittleEndian.AppendUint64(b, v)
			}
		case []uint32:
			for _, v := range ws {
				b = binary.LittleEndian.AppendUint32(b, v)
			}
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		words = words[n:]
	}
	return nil
}

// validateStructure parses the arena as the sequence of blocks it must be and
// checks everything a walk relies on, so that a deserialized trie can never
// read out of bounds or loop — the arena may be served unchecksummed from a
// mapping, and this scan is all that stands between a forged file and the
// lookups. It accepts exactly the arenas Relayout produces: with shared
// blocks, or, when shared is false, with every node storing both of its own
// (index versions 7 and 8):
//
//   - the sentinel comes first: fanout one-bit codes and one palette entry,
//     all zero;
//   - blocks sit in canonical breadth-first order: the face roots and then,
//     scanning nodes in that order and palettes in order, every child entry
//     names a node whose code block is either stored right where the blocks
//     before it end or named where an equal block of its width was stored
//     first, and whose palette is then stored right after or, if shareable
//     (child-free, not a face root's), named where an equal one was stored
//     first. A stored block must be the first of its words, and a name must
//     be a stored block's, whole. That one rule makes every child entry a
//     node boundary, forward (no cycles) and unique apart from shared leaves
//     (a tree, not a DAG: a named palette holds no child entry), and — with
//     the final check that the stored blocks use up the arena — leaves no
//     block unreachable and no trailing words. Without sharing, every code
//     block is stored, right before its palette;
//   - every code selects a palette entry (the palette is as long as the node
//     has distinct codes, and lies inside the arena), so entry fetches stay
//     inside the node;
//   - a covering has one encoding, so write∘read∘write is the identity: the
//     palette is in first-use slot order and its values pairwise distinct
//     (child entries each have a slot of their own, and two of them name
//     one leaf where the slots hang equal leaves), the code width is the
//     narrowest that numbers it, and code bits past the last slot are zero;
//   - a child entry occupies a single slot, and no node lies deeper than a
//     60-bit key has chunks (the walks keep per-depth state);
//   - every lookup-table offset selects a well-formed, non-empty
//     [numTrue, true…, numCand, cand…] run.
//
// While scanning it also records the largest polygon id any entry can emit
// (see MaxPolygonRef), so the enclosing index can cross-check its header's
// polygon count against what lookups will actually return.
func (t *Trie) validateStructure(shared bool) error {
	arena := t.nodes
	arenaLen, tableLen := uint64(len(arena)), uint64(len(t.table))
	trackRef := func(id uint32) {
		if !t.hasRefs || id > t.maxRef {
			t.maxRef = id
		}
		t.hasRefs = true
	}

	// The sentinel is what every miss and every parked interleaved lane
	// reads as "no entry".
	next := paletteAt(t.sentinel()) + 1 // where the next stored block must start
	if arenaLen < next {
		return fmt.Errorf("core: arena lacks the sentinel node")
	}
	for _, w := range arena[:next] {
		if w != 0 {
			return fmt.Errorf("core: sentinel node is not empty")
		}
	}

	// queue holds the child entries named so far, face roots first; node i
	// of the scan is the one queue[i] names. Breadth-first order keeps each
	// depth contiguous: the nodes named while one depth is scanned are the
	// next depth.
	var queue []uint64
	for f, root := range t.roots {
		switch {
		case root == 0: // empty face
		case root&tagMask != tagChild:
			return fmt.Errorf("core: face %d root %#x is not a child entry", f, root)
		default:
			queue = append(queue, root)
		}
	}
	var (
		starts [maxFanout + 1]uint16
		codes  [maxFanout]uint8
		sorted [maxFanout]uint64
		stored blockSet // the shareable blocks stored so far
	)
	if shared {
		stored.reserve(len(arena) / 8) // real maps store about one block per 10 words
	}
	roots := len(queue)
	depth, depthEnd := 1, len(queue)
	for i := 0; i < len(queue); i++ {
		if i == depthEnd {
			depth, depthEnd = depth+1, len(queue)
		}
		node, entry := next, queue[i]
		pal, end, lw := paletteAt(entry), codeEnd(entry), entry>>2&3
		if depth > maxKeyChunks(t.bits) {
			return fmt.Errorf("core: node %d sits %d nodes deep, beyond the %d-bit key", node, depth, 2*cellid.MaxLevel)
		}
		// The code block: stored right here, or named where it was stored
		// first.
		c := codeWords(t.fanout, lw)
		switch {
		case !shared && end != pal:
			return fmt.Errorf("core: child entry %#x: code block %d words from its palette, in an arena that shares no blocks", entry, int64(end-pal))
		case end == next+c:
			if end > arenaLen {
				return fmt.Errorf("core: node at offset %d starts past the arena's %d words", node, arenaLen)
			}
			if shared {
				if first, found := stored.intern(arena, next, c, lw); found {
					return fmt.Errorf("core: node at offset %d stores a second copy of the %d-bit code block at %d", node, 1<<lw, first)
				}
			}
			next = end
		case end > next || !shared:
			// A block right where the node's code words would end at another
			// width: the entry's width bits are what is wrong.
			for l := range uint64(4) {
				if other := codeWords(t.fanout, l); other != c && end == next+other {
					return fmt.Errorf("core: child entry %#x says %d-bit codes, the node at offset %d has %d code words", entry, 1<<lw, node, other)
				}
			}
			return fmt.Errorf("core: child entry %#x names a node at offset %d, breadth-first order puts it at %d", entry, end-min(end, c), node)
		default:
			if end < c {
				return fmt.Errorf("core: child entry %#x names a code block ending at %d", entry, end)
			}
			if first, found := stored.lookup(arena, arena[end-c:end], lw); !found || first != end-c {
				return fmt.Errorf("core: child entry %#x names words [%d, %d), not a stored %d-bit code block", entry, end-c, end, 1<<lw)
			}
		}
		if n := uint(t.fanout) << lw; n < 64 && arena[end-1]>>n != 0 {
			return fmt.Errorf("core: node %d: code bits set past slot %d", node, t.fanout-1)
		}
		// The palette: stored right after, or named.
		here := pal == next
		if !here && (pal > next || !shared) {
			return fmt.Errorf("core: child entry %#x names a palette at offset %d, breadth-first order puts it at %d", entry, pal, next)
		}

		// Codes are numbered in order of first use, so d — the codes used so
		// far — is the palette's size once every run is read, and a child
		// entry's code must be new and its run one slot long.
		runs := t.runs(entry, &starts, &codes)
		d := 0
		for r, c := range codes[:runs] {
			first := int(c) == d
			switch {
			case int(c) > d:
				return misnumbered(node, starts[:runs], codes[:runs])
			case first:
				if d++; pal+uint64(d) > arenaLen {
					return fmt.Errorf("core: node at offset %d runs past the arena's %d words", node, arenaLen)
				}
			}
			if isChild(arena[pal+uint64(c)]) && (!first || starts[r+1]-starts[r] > 1) {
				return fmt.Errorf("core: node %d code %d: child entry in more than one slot", node, c)
			}
		}
		if want := codeWidth(d); lw != want {
			return fmt.Errorf("core: node %d: %d-entry palette in %d-bit codes, width not minimal (%d bits)", node, d, 1<<lw, 1<<want)
		}
		palette := arena[pal : pal+uint64(d)]
		if !here {
			// A named palette was checked where it is stored; it must be
			// that one, whole, and shareable.
			if first, found := stored.lookup(arena, palette, paletteKind); !found || first != pal {
				if slices.ContainsFunc(palette, isChild) {
					return fmt.Errorf("core: child entry %#x shares the palette at offset %d, which holds a child entry", entry, pal)
				}
				return fmt.Errorf("core: child entry %#x names words [%d, %d), not a stored shareable palette", entry, pal, pal+uint64(d))
			}
			continue
		}
		if e, dup := duplicate(palette, &sorted); dup {
			return fmt.Errorf("core: node %d: duplicate palette entries %#x", node, e)
		}

		children := false
		for c, e := range palette {
			switch e & tagMask {
			case tagChild:
				if e != 0 { // 0 is empty: false hit
					children = true
					queue = append(queue, e)
				}
			case tagOne:
				trackRef(uint32(e>>2) >> 1)
			case tagTwo:
				trackRef(uint32(e>>2&payloadMax) >> 1)
				trackRef(uint32(e>>33) >> 1)
			case tagOffset:
				off := e >> 2
				if off >= tableLen {
					return fmt.Errorf("core: node %d code %d: table offset %d out of range", node, c, off)
				}
				nTrue := uint64(t.table[off])
				if off+1+nTrue >= tableLen {
					return fmt.Errorf("core: node %d code %d: true-hit run overflows table", node, c)
				}
				nCand := uint64(t.table[off+1+nTrue])
				if off+2+nTrue+nCand > tableLen {
					return fmt.Errorf("core: node %d code %d: candidate run overflows table", node, c)
				}
				if nTrue+nCand == 0 {
					// A hit without references: Build refuses such cells, and
					// Cells would hand compaction one it refuses too.
					return fmt.Errorf("core: node %d code %d: table run holds no references", node, c)
				}
				for _, id := range t.table[off+1 : off+1+nTrue] {
					trackRef(id)
				}
				for _, id := range t.table[off+2+nTrue : off+2+nTrue+nCand] {
					trackRef(id)
				}
			}
		}
		if shared && i >= roots && !children {
			if first, found := stored.intern(arena, pal, uint64(d), paletteKind); found {
				return fmt.Errorf("core: node at offset %d stores a second copy of the palette at %d", node, first)
			}
		}
		next = pal + uint64(d)
	}
	if next != arenaLen {
		return fmt.Errorf("core: %d arena words lie past the last reachable node", arenaLen-next)
	}
	t.reached = len(queue)
	return nil
}

// duplicate reports a value entry palette holds twice: pairwise up to 16
// entries, through a sorted copy in scratch beyond (one node in a hundred on
// the census map, but a few hold 100 to 250, where pairwise dominated the
// scan). Child entries may repeat: each names its own slot's subtree, and two
// slots can hang equal leaves, which share one.
func duplicate(palette []uint64, scratch *[maxFanout]uint64) (uint64, bool) {
	if len(palette) > 16 {
		palette = scratch[:copy(scratch[:], palette)]
		slices.Sort(palette)
		for i := 1; i < len(palette); i++ {
			if palette[i] == palette[i-1] && !isChild(palette[i]) {
				return palette[i], true
			}
		}
		return 0, false
	}
	for i, e := range palette {
		for _, f := range palette[:i] {
			if e == f && !isChild(e) {
				return e, true
			}
		}
	}
	return 0, false
}

// misnumbered explains why the node at offset node, with the given runs,
// uses a code before the first use of the one below it: a palette is as long
// as its node has distinct codes, so either the code lies past the palette,
// or the palette is not in first-use order.
func misnumbered(node uint64, starts []uint16, codes []uint8) error {
	var seen [maxFanout / 64]uint64
	d, top := 0, uint8(0)
	for _, c := range codes {
		if seen[c>>6]>>(c&63)&1 == 0 {
			seen[c>>6] |= 1 << (c & 63)
			d++
		}
		top = max(top, c)
	}
	if int(top) >= d {
		return fmt.Errorf("core: node %d: code %d is past its %d-entry palette", node, top, d)
	}
	want := uint8(0)
	for r, c := range codes {
		switch {
		case c > want:
			return fmt.Errorf("core: node %d slot %d: code %d comes before the first use of code %d, palette not in first-use order", node, starts[r], c, want)
		case c == want:
			want++
		}
	}
	panic("core: misnumbered called on codes in first-use order")
}

// maxFanout is the largest supported fanout, the bound of per-node scratch.
const maxFanout = 256

// maxKeyChunks returns the number of bits-wide chunks in a cell id's path:
// the deepest a node can sit (root = 1) and still be reached by a key.
func maxKeyChunks(bits uint) int { return (2*cellid.MaxLevel + int(bits) - 1) / int(bits) }

// MaxPolygonRef returns the largest polygon id a lookup on this trie can
// return, and whether the trie holds any references at all. It is computed
// by TrieFromFlat's structural validation, so it is only meaningful on
// deserialized tries.
func (t *Trie) MaxPolygonRef() (uint32, bool) { return t.maxRef, t.hasRefs }
