package core

import (
	"fmt"
	"hash/crc64"
	"io"

	"github.com/actindex/act/internal/cellid"
)

// Size bounds shared by the builder and every reader of flat trie data: a
// child entry's 29-bit palette offset and signed 30-bit code-block distance
// reach every word of an arena of 2^29 words (4 GiB), and table offsets
// beyond the 31-bit entry payload could never be addressed by a lookup.
// Build refuses larger tries (ErrArenaLimit, ErrTableLimit); a file that
// claims one is corruption.
const (
	MaxArenaWords = 1 << 29
	MaxTableWords = payloadMax
)

// Flat is the zero-copy wire form of a trie: the node arena and lookup table
// as raw word slices plus the per-face root metadata. It is what the index
// file layout persists — the arena is written exactly as it lives in memory
// (canonical breadth-first order, little-endian words), so a loader can
// alias the words straight out of a file image or decode them from it.
type Flat struct {
	Fanout   uint32
	Roots    [cellid.NumFaces]uint64
	Skips    [cellid.NumFaces]uint64
	Prefixes [cellid.NumFaces]uint64
	// Nodes is the node arena (palette-coded nodes back to back, sentinel
	// first); Table the lookup table. Roots holds the child entry naming
	// each face's root, 0 for an empty face.
	Nodes []uint64
	Table []uint32
}

// Flat returns the trie's flat form. The returned slices alias the trie's
// own storage — callers serialize them, they do not mutate them.
func (t *Trie) Flat() Flat {
	f := Flat{
		Fanout:   uint32(t.fanout),
		Roots:    t.roots,
		Prefixes: t.rootPrefix,
		Nodes:    t.nodes,
		Table:    t.table,
	}
	for i, s := range t.rootSkip {
		f.Skips[i] = uint64(s)
	}
	return f
}

// WriteSection streams the arena and table as raw little-endian words —
// the exact bytes an index file carries between arenaOff and the end of
// the table, and the bytes SectionCRC sums.
func (f Flat) WriteSection(w io.Writer) error {
	if err := writeWords(w, f.Nodes); err != nil {
		return err
	}
	return writeWords(w, f.Table)
}

// SectionCRC returns the CRC-64/ECMA of the bytes WriteSection produces.
// Computing it requires a full pass over the arena, so heap loads verify it
// while mapped ones — whose safety rests on structural validation, not
// checksums — skip it.
func (f Flat) SectionCRC() uint64 {
	h := crc64.New(crcTable)
	writeWords(h, f.Nodes) // hash.Hash64 writes never fail
	writeWords(h, f.Table)
	return h.Sum64()
}

// TrieFromFlat reconstructs a servable trie from its flat form without
// copying the arena or table: the returned trie aliases f.Nodes and f.Table,
// which may live in read-only memory (a file mapping). Everything a walk
// depends on is validated up front — fanout, skip alignment, and, in one
// walk (checkLayout), every node (see validateStructure) and that f's arena
// and roots are word for word those Relayout lays out: the one arena Build
// produces for a covering, every block reachable and where the layout puts
// it. After a successful return, lookups never branch on anything
// unvalidated, so even a hostile file cannot make them read outside the two
// slices.
func TrieFromFlat(f Flat) (*Trie, error) {
	t, err := newTrie(int(f.Fanout))
	if err != nil {
		return nil, err
	}
	t.nodes, t.table = f.Nodes, f.Table
	t.roots, t.rootPrefix = f.Roots, f.Prefixes
	for i, v := range f.Skips {
		if v > 60 || v%uint64(t.bits) != 0 {
			return nil, fmt.Errorf("core: invalid root skip %d", v)
		}
		t.rootSkip[i] = uint(v)
	}
	if uint64(len(f.Nodes)) > MaxArenaWords || uint64(len(f.Table)) > MaxTableWords {
		return nil, fmt.Errorf("core: implausible flat trie size (%d node words, %d table words)", len(f.Nodes), len(f.Table))
	}
	if err := t.validateFrame(); err != nil {
		return nil, err
	}
	if err := t.checkLayout(); err != nil {
		return nil, err
	}
	return t, nil
}
