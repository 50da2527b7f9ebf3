package core

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/supercover"
)

// The reference trie: the dense builder and one-load walk the package
// shipped before nodes were compressed, kept as the oracle of
// differential_test.go. Every node is a plain array of `fanout` entries,
// node i at nodes[i*fanout:(i+1)*fanout], child references are node
// indices, node 0 is the sentinel, and a denormalized cell is written once
// per slot. Entry values and the lookup table come from the production
// encoder, so the two tries may differ only in how nodes are stored.

type denseTrie struct {
	enc    *builder // entry values, lookup table, root skips (enc.t)
	fanout uint64
	bits   uint
	nodes  []uint64
	roots  [cellid.NumFaces]uint64
}

// buildDense inserts every cell of sc and renumbers the nodes breadth-first.
func buildDense(sc *supercover.SuperCovering, cfg Config) (*denseTrie, error) {
	enc, err := newBuilder(cfg, 0)
	if err != nil {
		return nil, err
	}
	sc.Faces(enc.t.setRootSkip)
	d := &denseTrie{enc: enc, fanout: uint64(cfg.Fanout), bits: enc.t.bits, nodes: make([]uint64, cfg.Fanout)}
	for i := 0; i < sc.NumCells(); i++ {
		if err := d.insert(sc.Cell(i), sc.Refs(i)); err != nil {
			return nil, err
		}
	}
	d.relayout()
	return d, nil
}

func (d *denseTrie) allocNode() uint64 {
	d.nodes = append(d.nodes, make([]uint64, d.fanout)...)
	return uint64(len(d.nodes))/d.fanout - 1
}

// insert stores the reference set of one covering cell, one write per
// replicated slot.
func (d *denseTrie) insert(cell cellid.ID, refs []supercover.Ref) error {
	if len(refs) == 0 {
		return fmt.Errorf("%w: cell %v", ErrEmptyRefs, cell)
	}
	level := cell.Level()
	if level == 0 {
		for _, child := range cell.Children() {
			if err := d.insert(child, refs); err != nil {
				return err
			}
		}
		return nil
	}
	value, err := d.enc.encodeRefs(refs)
	if err != nil {
		return fmt.Errorf("cell %v: %w", cell, err)
	}
	t := d.enc.t
	face := cell.Face()
	if d.roots[face] == 0 {
		d.roots[face] = d.allocNode()
	}
	cur := d.roots[face]
	key := cell.PathBits() << 4
	totalBits := 2 * level
	if skip := t.rootSkip[face]; skip > 0 {
		if key>>(64-skip)<<(64-skip) != t.rootPrefix[face] {
			return fmt.Errorf("core: cell %v outside the face's common prefix", cell)
		}
		key <<= skip
		totalBits -= int(skip)
	}
	depth := (totalBits - 1) / int(d.bits)
	for i := 0; i < depth; i++ {
		idx := key >> (64 - d.bits)
		key <<= d.bits
		slot := cur*d.fanout + idx
		entry := d.nodes[slot]
		switch {
		case entry == 0:
			child := d.allocNode()
			d.nodes[slot] = child << 2
			cur = child
		case entry&tagMask == tagChild:
			cur = entry >> 2
		default:
			return fmt.Errorf("%w: cell %v descends through an occupied entry", ErrOverlap, cell)
		}
	}
	rb := uint(totalBits - depth*int(d.bits))
	base := (key >> (64 - d.bits)) &^ (1<<(d.bits-rb) - 1)
	for i := uint64(0); i < 1<<(d.bits-rb); i++ {
		slot := cur*d.fanout + base + i
		if d.nodes[slot] != 0 {
			return fmt.Errorf("%w: cell %v collides at entry %d", ErrOverlap, cell, base+i)
		}
		d.nodes[slot] = value
	}
	return nil
}

// relayout renumbers the dense arena breadth-first from the face roots.
func (d *denseTrie) relayout() {
	numNodes := uint64(len(d.nodes)) / d.fanout
	remap := make([]uint64, numNodes)
	var order []uint64
	visit := func(n uint64) {
		if remap[n] == 0 {
			remap[n] = uint64(len(order)) + 1
			order = append(order, n)
		}
	}
	for _, root := range d.roots {
		if root != 0 {
			visit(root)
		}
	}
	for qi := 0; qi < len(order); qi++ {
		for _, e := range d.node(order[qi]) {
			if isChild(e) {
				visit(e >> 2)
			}
		}
	}
	arena := make([]uint64, d.fanout, (uint64(len(order))+1)*d.fanout)
	for _, old := range order {
		for _, e := range d.node(old) {
			if isChild(e) {
				e = remap[e>>2] << 2
			}
			arena = append(arena, e)
		}
	}
	d.nodes = arena
	for f, root := range d.roots {
		d.roots[f] = remap[root]
	}
}

// node returns the entries of node n.
func (d *denseTrie) node(n uint64) []uint64 { return d.nodes[n*d.fanout : (n+1)*d.fanout] }

// walk is the dense walk: one load per node. It returns the terminal entry
// covering leaf (0 on a miss) and the number of nodes read.
func (d *denseTrie) walk(leaf cellid.ID) (entry uint64, accesses int) {
	t := d.enc.t
	face := leaf.Face()
	cur := d.roots[face]
	if cur == 0 {
		return 0, 0
	}
	key := leaf.PathBits() << 4
	skip := t.rootSkip[face]
	if (key^t.rootPrefix[face])>>(64-skip) != 0 {
		return 0, 0
	}
	key <<= skip
	for {
		accesses++
		entry := d.nodes[cur*d.fanout+key>>(64-d.bits)]
		key <<= d.bits
		if !isChild(entry) {
			return entry, accesses
		}
		cur = entry >> 2
	}
}

// lookup decodes the terminal entry covering leaf into res and its flat
// Match form, and reports hit and node accesses.
func (d *denseTrie) lookup(leaf cellid.ID, res *Result) (matches []Match, hit bool, accesses int) {
	entry, accesses := d.walk(leaf)
	if entry == 0 {
		return nil, false, accesses
	}
	for _, r := range d.enc.t.appendEntryRefs(entry, nil) {
		matches = append(matches, Match{ID: r.PolygonID, Exact: r.Interior})
		if r.Interior {
			res.True = append(res.True, r.PolygonID)
		} else {
			res.Candidates = append(res.Candidates, r.PolygonID)
		}
	}
	return matches, true, accesses
}

// denseCell is one cell of the reference enumeration.
type denseCell struct {
	cell cellid.ID
	refs []supercover.Ref
}

// cells enumerates the covering the dense arena stores, the way Cells used
// to: an aligned block of equal terminal entries is one cell, any other
// block splits into its four quarters, single child entries recurse.
func (d *denseTrie) cells() []denseCell {
	var out []denseCell
	t := d.enc.t
	var block func(face int, node, base, size, key uint64, consumed uint)
	block = func(face int, node, base, size, key uint64, consumed uint) {
		entries := d.node(node)[base : base+size]
		first, uniform := entries[0], true
		for _, e := range entries[1:] {
			uniform = uniform && e == first
		}
		switch {
		case uniform && first == 0:
		case uniform && !isChild(first):
			totalBits := consumed + d.bits - uint(bits.TrailingZeros64(size))
			pos := (key|base<<(64-consumed-d.bits))>>4<<1 | 1
			out = append(out, denseCell{cellid.FromFacePosLevel(face, pos, int(totalBits)/2), t.appendEntryRefs(first, nil)})
		case size == 1:
			block(face, first>>2, 0, d.fanout, key|base<<(64-consumed-d.bits), consumed+d.bits)
		default:
			for i := uint64(0); i < 4; i++ {
				block(face, node, base+i*size/4, size/4, key, consumed)
			}
		}
	}
	for face, root := range d.roots {
		if root != 0 {
			block(face, root, 0, d.fanout, t.rootPrefix[face], t.rootSkip[face])
		}
	}
	return out
}

// compactArena palette-codes a dense arena — node i at
// dense[i*fanout:(i+1)*fanout], node 0 the sentinel, child entries holding
// node indices — into the shared layout of index versions 9 and 10, node by
// node in index order, and returns the arena with the child entry naming
// each node. With share, it lays blocks out the way Relayout's Shared does,
// by its own means: a
// node's code block is named where an equal block of its width went first,
// and a palette that holds no child entry and is not a root's (nodes named
// in roots) where an equal palette went first; everything else is stored
// in place.
func compactArena(fanout int, dense []uint64, roots [cellid.NumFaces]uint64, share bool) (arena, entries []uint64) {
	numNodes := len(dense) / fanout
	entries = make([]uint64, numNodes)
	codesAt, palettesAt := map[string]uint64{}, map[string]uint64{}
	key := func(words []uint64, lw uint64) string { return fmt.Sprint(lw, words) }
	var parents []uint64 // palette offsets of the nodes holding child entries
	for n := range numNodes {
		// Child entries keep their node indices while the node is coded:
		// like the builder's child entries they are distinct per child.
		node, entry := appendNode(nil, dense[n*fanout:(n+1)*fanout])
		lw := entry >> 2 & 3
		c := codeWords(fanout, lw)
		codes, palette := node[:c], node[c:]
		end, ok := codesAt[key(codes, lw)]
		if !ok || !share || n == 0 {
			arena = append(arena, codes...)
			end = uint64(len(arena))
			if n > 0 { // the sentinel is not a node to share with
				codesAt[key(codes, lw)] = end
			}
		}
		children := slices.ContainsFunc(palette, isChild)
		shareable := share && n > 0 && !children && !slices.Contains(roots[:], uint64(n))
		pal, ok := palettesAt[key(palette, paletteKind)]
		if !ok || !shareable {
			pal = uint64(len(arena))
			arena = append(arena, palette...)
			if shareable {
				palettesAt[key(palette, paletteKind)] = pal
			}
		}
		if children {
			parents = append(parents, pal, uint64(len(palette)))
		}
		entries[n] = childEntry(pal, end, lw)
	}
	for i := 0; i < len(parents); i += 2 {
		for k := parents[i]; k < parents[i]+parents[i+1]; k++ {
			if e := arena[k]; isChild(e) && e>>2 < uint64(numNodes) {
				arena[k] = entries[e>>2]
			}
		}
	}
	return arena, entries
}

// flat returns the reference trie in the flat form of the shared layout
// (index versions 9 and 10).
func (d *denseTrie) flat() Flat {
	arena, entries := compactArena(int(d.fanout), d.nodes, d.roots, true)
	f := d.enc.t.Flat()
	f.Nodes = arena
	for face, root := range d.roots {
		if root != 0 {
			f.Roots[face] = entries[root]
		}
	}
	return f
}
