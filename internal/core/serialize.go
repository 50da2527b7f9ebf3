package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math/bits"

	"github.com/actindex/act/internal/cellid"
)

// Word-level I/O and structural validation shared by every reader and
// writer of flat trie data (see flat.go for the format itself).

var crcTable = crc64.MakeTable(crc64.ECMA)

// writeU64s streams a large word slice through a fixed scratch buffer,
// avoiding binary.Write's full-size temporary allocation.
func writeU64s(w io.Writer, words []uint64) error {
	var buf [8 * 8192]byte
	for len(words) > 0 {
		n := len(words)
		if n > 8192 {
			n = 8192
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], words[i])
		}
		if _, err := w.Write(buf[:n*8]); err != nil {
			return err
		}
		words = words[n:]
	}
	return nil
}

func writeU32s(w io.Writer, words []uint32) error {
	var buf [4 * 8192]byte
	for len(words) > 0 {
		n := len(words)
		if n > 8192 {
			n = 8192
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], words[i])
		}
		if _, err := w.Write(buf[:n*4]); err != nil {
			return err
		}
		words = words[n:]
	}
	return nil
}

// readU64s reads count words, growing the result as bytes actually arrive
// rather than trusting count up front: a corrupted length field then fails
// with an EOF after the real data runs out instead of attempting a
// multi-gigabyte allocation.
func readU64s(r io.Reader, count uint64) ([]uint64, error) {
	var buf [8 * 8192]byte
	words := make([]uint64, 0, min(count, 8192))
	for remaining := count; remaining > 0; {
		n := uint64(8192)
		if n > remaining {
			n = remaining
		}
		if _, err := io.ReadFull(r, buf[:n*8]); err != nil {
			return nil, err
		}
		for i := uint64(0); i < n; i++ {
			words = append(words, binary.LittleEndian.Uint64(buf[i*8:]))
		}
		remaining -= n
	}
	return words, nil
}

func readU32s(r io.Reader, count uint64) ([]uint32, error) {
	var buf [4 * 8192]byte
	words := make([]uint32, 0, min(count, 8192))
	for remaining := count; remaining > 0; {
		n := uint64(8192)
		if n > remaining {
			n = remaining
		}
		if _, err := io.ReadFull(r, buf[:n*4]); err != nil {
			return nil, err
		}
		for i := uint64(0); i < n; i++ {
			words = append(words, binary.LittleEndian.Uint32(buf[i*4:]))
		}
		remaining -= n
	}
	return words, nil
}

// validateStructure parses the arena as the sequence of self-describing
// nodes it must be and checks everything a walk relies on, so that a
// deserialized trie can never read out of bounds or loop — the arena may be
// served unchecksummed from a mapping, and this scan is all that stands
// between a forged file and the lookups. It accepts exactly the arenas
// Build produces:
//
//   - every node header is well formed: bit 0 of the bitmap set, no bit at or
//     above fanout, the rank word equal to the bitmap's cumulative popcounts
//     (entry fetches then stay inside the node), the node inside the arena;
//   - runs are maximal — no two adjacent runs hold equal entries — so a
//     covering has one encoding and write∘read∘write is the identity;
//   - the sentinel at offset 0 is one empty run;
//   - nodes sit in canonical breadth-first order: scanning nodes in arena
//     order and runs in slot order, the face roots and then every child
//     reference must name exactly the next node not yet named. That one rule
//     makes every reference a node boundary, forward (no cycles) and unique
//     (a tree, not a DAG), and — with the final check that the named nodes
//     use up the arena — leaves no node unreachable and no trailing words;
//   - a child reference occupies a single slot, and no node lies deeper
//     than a 60-bit key has chunks (the walks keep per-depth state);
//   - every lookup-table offset selects a well-formed, non-empty
//     [numTrue, true…, numCand, cand…] run.
//
// While scanning it also records the largest polygon id any entry can emit
// (see MaxPolygonRef), so the enclosing index can cross-check its header's
// polygon count against what lookups will actually return.
func (t *Trie) validateStructure() error {
	arena, header := t.nodes, t.words+1
	arenaLen, tableLen := uint64(len(arena)), uint64(len(t.table))
	// nodeEnd sizes the node at off from its bitmap alone: enough to step
	// over it, whatever else the scan later finds wrong with it.
	nodeEnd := func(off uint64) (uint64, error) {
		if off+header > arenaLen {
			return 0, fmt.Errorf("core: node at offset %d starts past the arena's %d words", off, arenaLen)
		}
		end := off + header + t.nodeRuns(off)
		if end > arenaLen {
			return 0, fmt.Errorf("core: node at offset %d runs past the arena's %d words", off, arenaLen)
		}
		return end, nil
	}
	trackRef := func(id uint32) {
		if !t.hasRefs || id > t.maxRef {
			t.maxRef = id
		}
		t.hasRefs = true
	}

	// The sentinel is what every miss and every parked interleaved lane
	// reads as "no entry": a single run whose entry is 0.
	if arenaLen < header+1 {
		return fmt.Errorf("core: arena lacks the sentinel node")
	}
	if err := t.checkHeader(0); err != nil {
		return err
	}
	if t.nodeRuns(0) != 1 || arena[header] != 0 {
		return fmt.Errorf("core: sentinel node is not empty")
	}

	// next is the offset the next named node must have.
	next := header + 1
	var err error
	for f, root := range t.roots {
		if root == 0 {
			continue
		}
		if root != next {
			return fmt.Errorf("core: face %d root at offset %d, breadth-first order puts it at %d", f, root, next)
		}
		if next, err = nodeEnd(next); err != nil {
			return err
		}
	}
	// Breadth-first order keeps each depth contiguous: the nodes named
	// while one depth is scanned are the next depth.
	depth, depthEnd := 1, next
	var starts [maxFanout + 1]uint16
	for node := header + 1; node < next; {
		if node == depthEnd {
			depth, depthEnd = depth+1, next
		}
		if depth > maxKeyChunks(t.bits) {
			return fmt.Errorf("core: node %d sits %d nodes deep, beyond the %d-bit key", node, depth, 2*cellid.MaxLevel)
		}
		if err := t.checkHeader(node); err != nil {
			return err
		}
		runs := t.runStarts(node, &starts)
		entries := arena[node+header : node+header+uint64(runs)]
		for r, e := range entries {
			if r > 0 && e == entries[r-1] {
				return fmt.Errorf("core: node %d runs %d and %d hold the same entry", node, r-1, r)
			}
			switch e & tagMask {
			case tagChild:
				if e == 0 {
					continue // sentinel: false hit
				}
				if n := starts[r+1] - starts[r]; n != 1 {
					return fmt.Errorf("core: node %d slot %d: child reference spans %d slots", node, starts[r], n)
				}
				if c := e >> 2; c != next {
					return fmt.Errorf("core: node %d slot %d: child at offset %d, breadth-first order puts it at %d", node, starts[r], c, next)
				}
				if next, err = nodeEnd(next); err != nil {
					return err
				}
			case tagOne:
				trackRef(uint32(e>>2) >> 1)
			case tagTwo:
				trackRef(uint32(e>>2&payloadMax) >> 1)
				trackRef(uint32(e>>33) >> 1)
			case tagOffset:
				off := e >> 2
				if off >= tableLen {
					return fmt.Errorf("core: node %d slot %d: table offset %d out of range", node, starts[r], off)
				}
				nTrue := uint64(t.table[off])
				if off+1+nTrue >= tableLen {
					return fmt.Errorf("core: node %d slot %d: true-hit run overflows table", node, starts[r])
				}
				nCand := uint64(t.table[off+1+nTrue])
				if off+2+nTrue+nCand > tableLen {
					return fmt.Errorf("core: node %d slot %d: candidate run overflows table", node, starts[r])
				}
				if nTrue+nCand == 0 {
					// A hit without references: Build refuses such cells, and
					// Cells would hand compaction one it refuses too.
					return fmt.Errorf("core: node %d slot %d: table run holds no references", node, starts[r])
				}
				for _, id := range t.table[off+1 : off+1+nTrue] {
					trackRef(id)
				}
				for _, id := range t.table[off+2+nTrue : off+2+nTrue+nCand] {
					trackRef(id)
				}
			}
		}
		node += header + uint64(runs)
	}
	if next != arenaLen {
		return fmt.Errorf("core: %d arena words lie past the last reachable node", arenaLen-next)
	}
	return nil
}

// checkHeader verifies the bitmap and rank word of the node at arena offset
// node, which nodeEnd found to lie inside the arena.
func (t *Trie) checkHeader(node uint64) error {
	bm := t.nodes[node : node+t.words]
	if bm[0]&1 == 0 {
		return fmt.Errorf("core: node %d: slot 0 does not start a run", node)
	}
	if t.fanout < 64 && bm[0]>>t.fanout != 0 {
		return fmt.Errorf("core: node %d: run starts beyond slot %d", node, t.fanout-1)
	}
	if got, rank := t.nodes[node+t.words], rankWord(bm); got != rank {
		return fmt.Errorf("core: node %d: rank word %#x disagrees with the bitmap (%#x)", node, got, rank)
	}
	return nil
}

// maxFanout is the largest supported fanout, the bound of per-node scratch.
const maxFanout = 256

// maxKeyChunks returns the number of bits-wide chunks in a cell id's path:
// the deepest a node can sit (root = 1) and still be reached by a key.
func maxKeyChunks(bits uint) int { return (2*cellid.MaxLevel + int(bits) - 1) / int(bits) }

// runStarts lists the first slot of every run of the node at arena offset
// node, closes the list with fanout, and returns the number of runs.
func (t *Trie) runStarts(node uint64, starts *[maxFanout + 1]uint16) int {
	n := 0
	for w, bm := range t.nodes[node : node+t.words] {
		for ; bm != 0; bm &= bm - 1 {
			starts[n] = uint16(w<<6 + bits.TrailingZeros64(bm))
			n++
		}
	}
	starts[n] = uint16(t.fanout)
	return n
}

// MaxPolygonRef returns the largest polygon id a lookup on this trie can
// return, and whether the trie holds any references at all. It is computed
// by TrieFromFlat's structural validation, so it is only meaningful on
// deserialized tries.
func (t *Trie) MaxPolygonRef() (uint32, bool) { return t.maxRef, t.hasRefs }
