package core

import (
	"fmt"
	"math"
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
	skips, prefixes := referenceRootSkips(sc, enc.t.bits)
	for f := range skips {
		enc.t.rootSkip[f] = uint(skips[f])
	}
	enc.t.rootPrefix = prefixes
	d := &denseTrie{enc: enc, fanout: uint64(cfg.Fanout), bits: enc.t.bits, nodes: make([]uint64, cfg.Fanout)}
	for i := 0; i < sc.NumCells(); i++ {
		if err := d.insert(sc.Cell(i), sc.Refs(i)); err != nil {
			return nil, err
		}
	}
	d.relayout()
	return d, nil
}

// referenceRootSkips is the root-skip rule the builder applied before it
// found each face's skip from the nodes it built, kept as the oracle those
// skips are held against. A face's cells are sorted by id, so the key prefix
// they all share is that of the common ancestor of its first and last
// cells; the skip is the whole node chunks of it, less one chunk where that
// would leave no chunk of the shallower of the two cells' paths below it —
// which happens only when they are one cell. It returns the skips and
// prefixes in their Flat form, for node chunks of the given bits.
func referenceRootSkips(sc *supercover.SuperCovering, bits uint) (skips, prefixes [cellid.NumFaces]uint64) {
	for lo := 0; lo < sc.NumCells(); {
		face := sc.Cell(lo).Face()
		hi := lo
		for hi < sc.NumCells() && sc.Cell(hi).Face() == face {
			hi++
		}
		first, last := sc.Cell(lo), sc.Cell(hi-1)
		lo = hi
		var commonLevels int
		if anc, ok := cellid.CommonAncestor(first, last); ok {
			commonLevels = anc.Level()
		}
		skip := uint(2*commonLevels) / bits * bits
		for skip > 0 && int(skip) >= 2*min(first.Level(), last.Level()) {
			skip -= bits
		}
		skips[face] = uint64(skip)
		if skip > 0 {
			prefixes[face] = first.PathBits() << 4 >> (64 - skip) << (64 - skip)
		}
	}
	return skips, prefixes
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

// lookup decodes the terminal entry covering leaf into res, and reports hit
// and node accesses.
func (d *denseTrie) lookup(leaf cellid.ID, res *Result) (hit bool, accesses int) {
	entry, accesses := d.walk(leaf)
	if entry == 0 {
		return false, accesses
	}
	for _, r := range d.enc.t.appendEntryRefs(entry, nil) {
		if r.Interior {
			res.True = append(res.True, r.PolygonID)
		} else {
			res.Candidates = append(res.Candidates, r.PolygonID)
		}
	}
	return true, accesses
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
// node indices — and lays it out as Relayout does, node by node in index
// order (breadth-first for a renumbered dense trie) rather than by a walk,
// and returns the arena with the child entry naming each node (0 for a node
// nothing names). The top region holds, after the sentinel, every root
// (nodes named in roots) and every node holding a child entry: each stores
// its code block unless an equal block of its width went first into the
// region, and then its palette. The leaves go to the packer in index order,
// through every entry naming each; a leaf no entry names is stored whole
// after them.
func compactArena(fanout int, dense []uint64, roots [cellid.NumFaces]uint64) (arena, entries []uint64) {
	numNodes := len(dense) / fanout
	// src holds every node palette-coded in place, for the packer to read.
	var src []uint64
	at := make([]uint64, numNodes)       // each node's child entry in src
	bounds := make([]uint64, numNodes+1) // node n at src[bounds[n]:bounds[n+1]]
	for n := range numNodes {
		src, at[n] = appendNode(src, dense[n*fanout:(n+1)*fanout])
		bounds[n+1] = uint64(len(src))
	}
	codesOf := func(n int) []uint64 { return src[bounds[n]:paletteAt(at[n])] }
	paletteOf := func(n int) []uint64 { return src[paletteAt(at[n]):bounds[n+1]] } // child entries still node indices
	entries = make([]uint64, numNodes)
	arena = slices.Clone(src[:bounds[1]])
	top := map[string]uint64{}
	var stored blockSet // the same blocks, for the packer
	stored.reserve(numNodes)
	var parents []int
	leaf := make([]bool, numNodes)
	for n := 1; n < numNodes; n++ {
		if !slices.ContainsFunc(paletteOf(n), isChild) && !slices.Contains(roots[:], uint64(n)) {
			leaf[n] = true
			continue
		}
		w, codes := widthOf(at[n]), codesOf(n)
		key := fmt.Sprint(w, codes)
		end, ok := top[key]
		if !ok {
			stored.intern(arena, codes, uint64(len(arena)), w-1)
			arena = append(arena, codes...)
			end = uint64(len(arena))
			top[key] = end
		}
		pal := uint64(len(arena))
		arena = append(arena, paletteOf(n)...)
		entries[n] = childEntry(pal, end, w)
		parents = append(parents, n)
	}
	// Name the top region's children; collect the entries naming leaves.
	var refs [][2]uint64 // arena word, leaf
	for _, n := range parents {
		pal := paletteAt(entries[n])
		for k := pal; k < pal+uint64(len(paletteOf(n))); k++ {
			if e := arena[k]; isChild(e) && e>>2 < uint64(numNodes) {
				if c := e >> 2; leaf[c] {
					refs = append(refs, [2]uint64{k, c})
				} else {
					arena[k] = entries[c]
				}
			}
		}
	}
	slices.SortStableFunc(refs, func(a, b [2]uint64) int { return int(a[1]) - int(b[1]) })
	leaves := packer{src: src, budget: math.MaxInt}
	leaves.reserve(numNodes)
	for _, r := range refs {
		n := int(r[1])
		codes := codesOf(n)
		leaves.add(r[0], bounds[n], uint64(len(codes)), paletteAt(at[n]), uint64(len(paletteOf(n))), widthOf(at[n]))
	}
	arena, _ = leaves.pack(arena, &stored, false)
	for _, r := range refs {
		if entries[r[1]] == 0 {
			entries[r[1]] = arena[r[0]]
		}
	}
	for n := 1; n < numNodes; n++ {
		if leaf[n] && entries[n] == 0 {
			arena = append(arena, codesOf(n)...)
			entries[n] = childEntry(uint64(len(arena)), uint64(len(arena)), widthOf(at[n]))
			arena = append(arena, paletteOf(n)...)
		}
	}
	return arena, entries
}

// flat returns the reference trie in its flat form.
func (d *denseTrie) flat() Flat {
	arena, entries := compactArena(int(d.fanout), d.nodes, d.roots)
	f := d.enc.t.Flat()
	f.Nodes = arena
	for face, root := range d.roots {
		if root != 0 {
			f.Roots[face] = entries[root]
		}
	}
	return f
}
