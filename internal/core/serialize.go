package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
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

// validateStructure checks the node arena's referential integrity so that a
// deserialized trie can never walk out of bounds or loop: the builder
// allocates children strictly after their parents, so every child pointer
// must be forward (eliminating cycles) and in range; the builder also never
// shares a child between two entries, so each node may be referenced at most
// once (a tree, not a DAG — sharing would let Relayout's breadth-first
// renumbering orphan the deeper of two parents behind a backward pointer);
// and every lookup-table offset must select a well-formed
// [numTrue, true…, numCand, cand…] run.
// The checksum already rejects accidental corruption; this guards the walk
// itself, so even a file with a forged checksum cannot crash lookups. While
// scanning it also records the largest polygon id any entry can emit (see
// MaxPolygonRef), so the enclosing index can cross-check its header's
// polygon count against what lookups will actually return.
func (t *Trie) validateStructure(numNodes uint64) error {
	tableLen := uint64(len(t.table))
	trackRef := func(id uint32) {
		if !t.hasRefs || id > t.maxRef {
			t.maxRef = id
		}
		t.hasRefs = true
	}
	// Node 0 is the sentinel every miss and every parked interleaved lane
	// lands on; the walks read it as "no entry", so it must hold none.
	for k, e := range t.nodes[:t.fanout] {
		if e != 0 {
			return fmt.Errorf("core: sentinel node entry %d is not empty", k)
		}
	}
	referenced := make([]bool, numNodes)
	// Face roots count as referenced from the start: an interior entry
	// pointing at a root would be forward and unshared — passing the checks
	// below — yet Relayout would renumber the root to the front of the
	// arena and leave that entry pointing backward, breaking the
	// serialize-after-load fixed point. (Two faces sharing one root stay
	// legal: roots are not entries.)
	for _, root := range t.roots {
		if root != 0 && root < numNodes {
			referenced[root] = true
		}
	}
	for i := uint64(1); i < numNodes; i++ {
		base := i * uint64(t.fanout)
		for k := uint64(0); k < uint64(t.fanout); k++ {
			e := t.nodes[base+k]
			switch e & tagMask {
			case tagChild:
				if e == 0 {
					continue // sentinel: false hit
				}
				if c := e >> 2; c <= i || c >= numNodes {
					return fmt.Errorf("core: node %d entry %d: child %d out of order or range", i, k, e>>2)
				} else if referenced[c] {
					return fmt.Errorf("core: node %d entry %d: child %d referenced twice", i, k, c)
				} else {
					referenced[c] = true
				}
			case tagOne:
				trackRef(uint32(e>>2) >> 1)
			case tagTwo:
				trackRef(uint32(e>>2&payloadMax) >> 1)
				trackRef(uint32(e>>33) >> 1)
			case tagOffset:
				off := e >> 2
				if off >= tableLen {
					return fmt.Errorf("core: node %d entry %d: table offset %d out of range", i, k, off)
				}
				nTrue := uint64(t.table[off])
				if off+1+nTrue >= tableLen {
					return fmt.Errorf("core: node %d entry %d: true-hit run overflows table", i, k)
				}
				nCand := uint64(t.table[off+1+nTrue])
				if off+2+nTrue+nCand > tableLen {
					return fmt.Errorf("core: node %d entry %d: candidate run overflows table", i, k)
				}
				for _, id := range t.table[off+1 : off+1+nTrue] {
					trackRef(id)
				}
				for _, id := range t.table[off+2+nTrue : off+2+nTrue+nCand] {
					trackRef(id)
				}
			}
		}
	}
	return nil
}

// MaxPolygonRef returns the largest polygon id a lookup on this trie can
// return, and whether the trie holds any references at all. It is computed
// by TrieFromFlat's structural validation, so it is only meaningful on
// deserialized tries.
func (t *Trie) MaxPolygonRef() (uint32, bool) { return t.maxRef, t.hasRefs }
