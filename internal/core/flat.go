package core

import (
	"fmt"
	"hash/crc64"
	"io"
	"math/bits"

	"github.com/actindex/act/internal/cellid"
)

// Plausibility bounds shared by every reader of flat trie data: arenas
// beyond 128 GiB are corruption, and table offsets beyond the 31-bit entry
// payload could never be addressed by a lookup anyway.
const (
	MaxArenaWords = 1 << 34
	MaxTableWords = payloadMax
)

// Flat is the zero-copy wire form of a trie: the node arena and lookup table
// as raw word slices plus the per-face root metadata. It is what the v3 index
// layout persists — the arena is written exactly as it lives in memory
// (canonical breadth-first order, little-endian words), so a reader can
// either copy the words off a stream or alias them straight out of a
// memory-mapped file.
type Flat struct {
	Fanout   uint32
	Roots    [cellid.NumFaces]uint64
	Skips    [cellid.NumFaces]uint64
	Prefixes [cellid.NumFaces]uint64
	// Nodes is the node arena (NumNodes × Fanout words, sentinel included);
	// Table the lookup table.
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
// the exact bytes a v3 index file carries between arenaOff and the end of
// the table, and the bytes SectionCRC sums.
func (f Flat) WriteSection(w io.Writer) error {
	if err := writeU64s(w, f.Nodes); err != nil {
		return err
	}
	return writeU32s(w, f.Table)
}

// SectionCRC returns the CRC-64/ECMA of the bytes WriteSection produces.
// Computing it requires a full pass over the arena, so the copying reader
// verifies it while the zero-copy mmap path — whose safety rests on
// structural validation, not checksums — skips it.
func (f Flat) SectionCRC() uint64 {
	h := crc64.New(crcTable)
	writeU64s(h, f.Nodes) // hash.Hash64 writes never fail
	writeU32s(h, f.Table)
	return h.Sum64()
}

// ReadFlatWords reads a WriteSection stream back into freshly allocated
// word slices — the copying counterpart to aliasing a mapping. Growth is
// paced by bytes actually arriving, so forged lengths fail with EOF rather
// than huge allocations.
func ReadFlatWords(r io.Reader, nodeWords, tableWords uint64) ([]uint64, []uint32, error) {
	nodes, err := readU64s(r, nodeWords)
	if err != nil {
		return nil, nil, err
	}
	table, err := readU32s(r, tableWords)
	if err != nil {
		return nil, nil, err
	}
	return nodes, table, nil
}

// TrieFromFlat reconstructs a servable trie from its flat form without
// copying the arena or table: the returned trie aliases f.Nodes and f.Table,
// which may live in read-only memory (a file mapping). Everything a walk
// depends on is validated up front — fanout, root indices, skip alignment,
// the full structural scan of validateStructure — and, because a mapped
// arena cannot be rewritten, the arena must already be in canonical
// breadth-first order: TrieFromFlat verifies that with a read-only BFS
// instead of calling Relayout, and rejects non-canonical or partially
// unreachable arenas (Build and the serializers only ever produce canonical,
// fully reachable ones). After a successful return, lookups never branch on
// anything unvalidated, so even a hostile file cannot make them read outside
// the two slices.
func TrieFromFlat(f Flat) (*Trie, error) {
	switch f.Fanout {
	case 4, 16, 64, 256:
	default:
		return nil, fmt.Errorf("%w: got %d", ErrBadFanout, f.Fanout)
	}
	t := &Trie{
		fanout: int(f.Fanout),
		bits:   uint(bits.TrailingZeros32(f.Fanout)),
		nodes:  f.Nodes,
		table:  f.Table,
		roots:  f.Roots,
	}
	t.levels = int(t.bits) / 2
	t.maxDepth = (2*cellid.MaxLevel - 1) / int(t.bits)
	t.rootPrefix = f.Prefixes
	for i, v := range f.Skips {
		if v > 60 || v%uint64(t.bits) != 0 {
			return nil, fmt.Errorf("core: invalid root skip %d", v)
		}
		t.rootSkip[i] = uint(v)
	}
	if len(f.Nodes)%int(f.Fanout) != 0 {
		return nil, fmt.Errorf("core: arena length %d not a multiple of fanout %d", len(f.Nodes), f.Fanout)
	}
	if uint64(len(f.Nodes)) > MaxArenaWords || uint64(len(f.Table)) > MaxTableWords {
		return nil, fmt.Errorf("core: implausible flat trie size (%d node words, %d table words)", len(f.Nodes), len(f.Table))
	}
	numNodes := uint64(len(f.Nodes)) / uint64(f.Fanout)
	if numNodes == 0 {
		return nil, fmt.Errorf("core: arena lacks the sentinel node")
	}
	for _, root := range t.roots {
		if root >= numNodes {
			return nil, fmt.Errorf("core: root index %d out of range", root)
		}
	}
	if err := t.validateStructure(numNodes); err != nil {
		return nil, err
	}
	reached, canonical := t.canonicalOrder()
	if uint64(reached) != numNodes {
		return nil, fmt.Errorf("core: %d of %d nodes unreachable from any root", numNodes-uint64(reached), numNodes)
	}
	if !canonical {
		return nil, fmt.Errorf("core: arena is not in canonical breadth-first order")
	}
	return t, nil
}

// canonicalOrder walks the arena breadth-first from the face roots — the
// exact traversal Relayout uses to renumber — and reports how many nodes are
// reachable (sentinel included) and whether their existing indices already
// equal the breadth-first numbering. Unlike Relayout it never writes, so it
// is safe on arenas backed by read-only mappings.
func (t *Trie) canonicalOrder() (reached int, canonical bool) {
	fanout := uint64(t.fanout)
	numNodes := uint64(len(t.nodes)) / fanout
	if numNodes == 0 {
		return 0, true
	}
	seen := make([]bool, numNodes)
	order := make([]uint64, 0, numNodes-1)
	canonical = true
	for _, root := range t.roots {
		if root != 0 && !seen[root] {
			seen[root] = true
			if root != uint64(len(order))+1 {
				canonical = false
			}
			order = append(order, root)
		}
	}
	for qi := 0; qi < len(order); qi++ {
		base := order[qi] * fanout
		for _, e := range t.nodes[base : base+fanout] {
			if e != 0 && e&tagMask == tagChild {
				if child := e >> 2; !seen[child] {
					seen[child] = true
					if child != uint64(len(order))+1 {
						canonical = false
					}
					order = append(order, child)
				}
			}
		}
	}
	return len(order) + 1, canonical
}
