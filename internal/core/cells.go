package core

// Cell re-enumeration: the inverse of the insertion pipeline. A built trie
// is a lossless encoding of its prefix-free super covering — every aligned
// block of a run of slots with one terminal code is one covering cell with
// a decodable reference set. Cells walks the arena and hands that
// covering back, which is what lets an index compact without its source
// polygons: the current base's cells re-enter the super-covering merge
// directly, no geometry or re-covering required.

import (
	"fmt"
	"math/bits"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/supercover"
)

// Cells enumerates the covering cells stored in the trie: visit is called
// once per cell with the cell id and its decoded polygon references.
// Denormalized entry runs are coalesced back into the shallowest aligned
// cell carrying their shared value, so the enumeration is a valid
// prefix-free covering equivalent to (not necessarily identical to) the one
// the trie was built from — value-identical sibling cells merge, which is
// lossless for lookups. The refs slice is reused between calls: the callee
// must not retain it. Cells stops at, and returns, the first error visit
// reports. Cells arrive in ascending id order, pairwise disjoint: each one
// starts past the previous one's RangeMax — faces in order, slots in order
// within a node, a child's cells where its slot is.
func (t *Trie) Cells(visit func(cell cellid.ID, refs []supercover.Ref) error) error {
	w := cellWalker{t: t, visit: visit}
	for face := 0; face < cellid.NumFaces; face++ {
		if t.roots[face] == 0 {
			continue
		}
		w.face = face
		if err := w.node(t.roots[face], t.rootPrefix[face], t.rootSkip[face]); err != nil {
			return err
		}
	}
	return nil
}

// cellWalker carries the enumeration state of one Cells call.
type cellWalker struct {
	t       *Trie
	visit   func(cell cellid.ID, refs []supercover.Ref) error
	face    int
	scratch []supercover.Ref
}

// node enumerates the subtree rooted at the node the child entry node names.
// key holds the path bits consumed so far, top-aligned in 64 bits; consumed
// counts them. Each run of equal codes in the node is an uncovered gap, a
// child to recurse into, or a terminal value; a terminal run splits into
// the aligned blocks of 4^k slots it is made of, largest first at every
// position, and each such block is one covering cell — the shallowest cell
// whose denormalization fills exactly those slots.
func (w *cellWalker) node(node, key uint64, consumed uint) error {
	if consumed >= 2*cellid.MaxLevel {
		return fmt.Errorf("core: trie path at %d bits exceeds the %d-bit cell space", consumed, 2*cellid.MaxLevel)
	}
	t := w.t
	var starts [maxFanout + 1]uint16
	var codes [maxFanout]uint8
	for r := range t.runs(node, &starts, &codes) {
		slot, end := uint64(starts[r]), uint64(starts[r+1])
		switch e := t.nodes[paletteAt(node)+uint64(codes[r])]; {
		case e == 0: // uncovered gap
		case e&tagMask == tagChild:
			if err := w.node(e, key|slot<<(64-consumed-t.bits), consumed+t.bits); err != nil {
				return err
			}
		default:
			for slot < end {
				// The block at slot: as large as slot's alignment and the
				// rest of the run allow, a power of four.
				size := uint64(t.fanout)
				for slot&(size-1) != 0 || slot+size > end {
					size /= 4
				}
				if err := w.cell(e, slot, size, key, consumed); err != nil {
					return err
				}
				slot += size
			}
		}
	}
	return nil
}

// cell reports the covering cell stored as the aligned block of size slots
// at base: its path is key plus the top bits of base (the low log2(size)
// bits are zero by alignment).
func (w *cellWalker) cell(entry, base, size, key uint64, consumed uint) error {
	t := w.t
	totalBits := consumed + t.bits - uint(bits.TrailingZeros64(size))
	if totalBits > 2*cellid.MaxLevel {
		return fmt.Errorf("core: trie cell at %d path bits is deeper than level %d", totalBits, cellid.MaxLevel)
	}
	cellKey := key | base<<(64-consumed-t.bits)
	pos := cellKey>>4<<1 | 1 // any leaf under the cell; Parent trims it
	cell := cellid.FromFacePosLevel(w.face, pos, int(totalBits)/2)
	w.scratch = t.appendEntryRefs(entry, w.scratch[:0])
	return w.visit(cell, w.scratch)
}

// appendEntryRefs decodes a terminal entry's reference set into dst.
func (t *Trie) appendEntryRefs(entry uint64, dst []supercover.Ref) []supercover.Ref {
	switch entry & tagMask {
	case tagOne:
		return appendRefPayload(dst, uint32(entry>>2))
	case tagTwo:
		return appendRefPayload(appendRefPayload(dst, uint32(entry>>2&payloadMax)), uint32(entry>>33))
	default: // tagOffset
		off := uint32(entry >> 2)
		nTrue := t.table[off]
		off++
		for _, id := range t.table[off : off+nTrue] {
			dst = append(dst, supercover.Ref{PolygonID: id, Interior: true})
		}
		off += nTrue
		nCand := t.table[off]
		off++
		for _, id := range t.table[off : off+nCand] {
			dst = append(dst, supercover.Ref{PolygonID: id})
		}
		return dst
	}
}

// appendRefPayload decodes one 31-bit payload into a Ref.
func appendRefPayload(dst []supercover.Ref, p uint32) []supercover.Ref {
	return append(dst, supercover.Ref{PolygonID: p >> 1, Interior: p&1 != 0})
}
