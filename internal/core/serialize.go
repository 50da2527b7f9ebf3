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

// A loader checks everything a walk relies on, so that a deserialized trie
// can never read out of bounds or loop — the arena may be served
// unchecksummed from a mapping, and this check is all that stands between
// a forged file and the lookups. checkLayout walks the nodes breadth-first
// from the face roots as Relayout lays them out, checks each node with
// validateStructure before it reads it, and demands that each child entry
// name its node where the layout puts it:
//
//   - the sentinel comes first: fanout one-bit codes and one palette entry,
//     all zero (validateFrame), and every face root is a child entry;
//   - every named code block and palette lies inside the arena, every code
//     block past word 0 (a lookup reads the word below the one a code
//     starts in, to join a code that straddles two words);
//   - every child-entry word is reached at most once, so nodes form a tree
//     apart from shared leaves (a palette holding a child entry is named
//     once), and the walk ends: no cycle, no DAG;
//   - every code selects a palette entry (the palette is as long as the node
//     has distinct codes), so entry fetches stay inside the node;
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
// The layout leaves no block misplaced, unreachable or stored twice, and no
// trailing words. (It would refuse a DAG or a cycle too, since every layout
// stores each node with a child anew at the arena's end, but the rule on
// child-entry words refuses them where they are first reached.)
//
// While checking values it also records the largest polygon id any entry can
// emit (see MaxPolygonRef), so the enclosing index can cross-check its
// header's polygon count against what lookups will actually return.

// validateFrame checks the sentinel and the face roots' tags.
func (t *Trie) validateFrame() error {
	// No walk reads the sentinel — a 0 entry ends a walk before any node is
	// loaded — but the layout requires it.
	sentinel := paletteAt(t.sentinel()) + 1
	if uint64(len(t.nodes)) < sentinel {
		return fmt.Errorf("core: arena lacks the sentinel node")
	}
	for _, w := range t.nodes[:sentinel] {
		if w != 0 {
			return fmt.Errorf("core: sentinel node is not empty")
		}
	}
	for f, root := range t.roots {
		if root != 0 && root&tagMask != tagChild {
			return fmt.Errorf("core: face %d root %#x is not a child entry", f, root)
		}
	}
	return nil
}

// validator holds a loader's scratch for validateStructure.
type validator struct {
	// seen marks the palette words read already: a child entry may be
	// followed once, a value checked once however many leaves share it.
	seen   []uint64
	starts [maxFanout + 1]uint16
	codes  [maxFanout]uint8
	sorted [maxFanout]uint64
}

// validateStructure checks the node the child entry entry names, depth
// nodes deep (a face root is 1 deep), and returns its palette's size and
// whether the palette holds a child entry.
func (t *Trie) validateStructure(v *validator, entry uint64, depth int) (d uint64, children bool, err error) {
	arena := t.nodes
	arenaLen, tableLen := uint64(len(arena)), uint64(len(t.table))
	trackRef := func(id uint32) {
		if !t.hasRefs || id > t.maxRef {
			t.maxRef = id
		}
		t.hasRefs = true
	}
	if v.seen == nil {
		v.seen = make([]uint64, (arenaLen+63)/64)
	}
	pal, end, w := paletteAt(entry), codeEnd(entry), widthOf(entry)
	if depth > maxKeyChunks(t.bits) {
		return 0, false, fmt.Errorf("core: node at offset %d sits %d nodes deep, beyond the %d-bit key", pal, depth, 2*cellid.MaxLevel)
	}
	c := codeWords(t.fanout, w)
	if end <= c || end > arenaLen {
		return 0, false, fmt.Errorf("core: child entry %#x names a code block [%d, %d) outside the arena's words 1 to %d", entry, int64(end-c), end, arenaLen-1)
	}
	if n := uint64(t.fanout) * w & 63; n != 0 && arena[end-c]>>n != 0 {
		return 0, false, fmt.Errorf("core: node at offset %d: code bits set past slot %d", pal, t.fanout-1)
	}

	// Codes are numbered in order of first use, so d — the codes used so far
	// — is the palette's size once every run is read.
	runs := t.runs(entry, &v.starts, &v.codes)
	for _, c := range v.codes[:runs] {
		switch {
		case uint64(c) > d:
			return 0, false, misnumbered(pal, v.starts[:runs], v.codes[:runs])
		case uint64(c) == d:
			if d++; pal+d > arenaLen {
				return 0, false, fmt.Errorf("core: node at offset %d runs past the arena's %d words", pal, arenaLen)
			}
		}
	}
	if want := codeWidth(int(d)); w != want {
		return 0, false, fmt.Errorf("core: node at offset %d: %d-entry palette in %d-bit codes, width not minimal (%d bits)", pal, d, w, want)
	}
	palette := arena[pal : pal+d]
	if e, dup := duplicate(palette, &v.sorted); dup {
		return 0, false, fmt.Errorf("core: node at offset %d: duplicate palette entries %#x", pal, e)
	}

	for c, e := range palette {
		at := pal + uint64(c)
		if v.seen[at>>6]>>(at&63)&1 != 0 {
			if isChild(e) {
				return 0, false, fmt.Errorf("core: child entry %#x names the palette at offset %d, whose child entry at word %d is reached already", entry, pal, at)
			}
			continue
		}
		v.seen[at>>6] |= 1 << (at & 63)
		switch e & tagMask {
		case tagChild:
			children = children || e != 0 // 0 is empty: false hit
		case tagOne:
			trackRef(uint32(e>>2) >> 1)
		case tagTwo:
			trackRef(uint32(e>>2&payloadMax) >> 1)
			trackRef(uint32(e>>33) >> 1)
		case tagOffset:
			off := e >> 2
			if off >= tableLen {
				return 0, false, fmt.Errorf("core: node at offset %d code %d: table offset %d out of range", pal, c, off)
			}
			nTrue := uint64(t.table[off])
			if off+1+nTrue >= tableLen {
				return 0, false, fmt.Errorf("core: node at offset %d code %d: true-hit run overflows table", pal, c)
			}
			nCand := uint64(t.table[off+1+nTrue])
			if off+2+nTrue+nCand > tableLen {
				return 0, false, fmt.Errorf("core: node at offset %d code %d: candidate run overflows table", pal, c)
			}
			if nTrue+nCand == 0 {
				// A hit without references: Build refuses such cells, and
				// Cells would hand compaction one it refuses too.
				return 0, false, fmt.Errorf("core: node at offset %d code %d: table run holds no references", pal, c)
			}
			for _, id := range t.table[off+1 : off+1+nTrue] {
				trackRef(id)
			}
			for _, id := range t.table[off+2+nTrue : off+2+nTrue+nCand] {
				trackRef(id)
			}
		}
	}
	if children {
		// A child entry's code must be new where its run starts, and the
		// run one slot long.
		var used [maxFanout / 64]uint64
		for r, c := range v.codes[:runs] {
			first := used[c>>6]>>(c&63)&1 == 0
			used[c>>6] |= 1 << (c & 63)
			if isChild(palette[c]) && (!first || v.starts[r+1]-v.starts[r] > 1) {
				return 0, false, fmt.Errorf("core: node at offset %d code %d: child entry in more than one slot", pal, c)
			}
		}
	}
	return d, children, nil
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

// misnumbered explains why the node whose palette is at offset node, with
// the given runs,
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
		return fmt.Errorf("core: node at offset %d: code %d is past its %d-entry palette", node, top, d)
	}
	want := uint8(0)
	for r, c := range codes {
		switch {
		case c > want:
			return fmt.Errorf("core: node at offset %d slot %d: code %d comes before the first use of code %d, palette not in first-use order", node, starts[r], c, want)
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
// by TrieFromFlat's validation, so it is only meaningful on deserialized
// tries.
func (t *Trie) MaxPolygonRef() (uint32, bool) { return t.maxRef, t.hasRefs }
