package core

// Relayout renumbers the node arena breadth-first: face roots first, then
// every depth-2 node, and so on — the hottest (shallowest) levels end up
// contiguous at the front of the arena. The builder completes children
// before their parents, which leaves the heavily shared top levels at the
// far end of every subtree; after relayout the top of every walk reads from
// a compact prefix that stays cache-resident under batch probing, so only
// the deep, sparse levels can miss. The pass copies each node once into a
// fresh arena of the same size, rewriting only the child entries in its
// palette (codes, payloads, the lookup table, root skips, and all lookup
// results are untouched), and it is idempotent: relaying out an already
// breadth-first arena is the identity, which is what lets relaid tries
// round-trip through the serializer byte-identically.
//
// Nodes unreachable from any face root are dropped. It returns the number of
// nodes in the resulting arena, including the sentinel — Build-produced
// tries are fully reachable.
func (t *Trie) Relayout() int {
	src := t.nodes
	arena := make([]uint64, 0, len(src))
	arena = append(arena, src[:t.sentinel()>>4+1]...)
	// queue holds the old child entry and palette of each node in
	// breadth-first order; the node at queue[i] lands where the nodes before
	// it end, so its new child entry is known — from next — the moment it is
	// enqueued.
	type queued struct {
		old     uint64
		palette []uint64
	}
	var queue []queued
	next := uint64(len(arena))
	enqueue := func(old uint64) uint64 {
		lw := old >> 2 & 3
		pal := next + codeWords(t.fanout, lw)
		q := queued{old, t.palette(old)}
		queue = append(queue, q)
		next = pal + uint64(len(q.palette))
		return childEntry(pal, lw)
	}
	var roots [len(t.roots)]uint64
	for f, root := range t.roots {
		if root != 0 {
			roots[f] = enqueue(root)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		q := queue[qi]
		pal := q.old >> 4
		arena = append(arena, src[pal-codeWords(t.fanout, q.old>>2&3):pal]...)
		first := len(arena)
		arena = append(arena, q.palette...)
		for i, e := range arena[first:] {
			if isChild(e) {
				arena[first+i] = enqueue(e)
			}
		}
	}
	t.nodes, t.roots = arena, roots
	return len(queue) + 1
}
