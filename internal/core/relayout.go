package core

// Relayout renumbers the node arena breadth-first: face roots first, then
// every depth-2 node, and so on — the hottest (shallowest) levels end up
// contiguous at the front of the arena. The builder completes children
// before their parents, which leaves the heavily shared top levels at the
// far end of every subtree; after relayout the top of every walk reads from
// a compact prefix that stays cache-resident under batch probing, so only
// the deep, sparse levels can miss. The pass copies each node once into a
// fresh arena of the same size, rewriting only its child offsets (payloads,
// the lookup table, root skips, and all lookup results are untouched), and
// it is idempotent: relaying out an already breadth-first arena is the
// identity, which is what lets relaid tries round-trip through the
// serializer byte-identically.
//
// Nodes unreachable from any face root are dropped. It returns the number of
// nodes in the resulting arena, including the sentinel — Build-produced
// tries are fully reachable.
func (t *Trie) Relayout() int {
	src := t.nodes
	header := t.words + 1
	arena := make([]uint64, 0, len(src))
	arena = append(arena, src[:header+1]...) // the sentinel
	// queue holds the old offsets of the nodes in breadth-first order; the
	// node at queue[i] lands where the nodes before it end, so a node's new
	// offset is known — next — the moment it is enqueued.
	var queue []uint64
	next := uint64(len(arena))
	enqueue := func(old uint64) uint64 {
		at := next
		queue = append(queue, old)
		next += header + t.nodeRuns(old)
		return at
	}
	var roots [len(t.roots)]uint64
	for f, root := range t.roots {
		if root != 0 {
			roots[f] = enqueue(root)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		old := queue[qi]
		first := uint64(len(arena)) + header
		arena = append(arena, src[old:old+header+t.nodeRuns(old)]...)
		for i, e := range arena[first:] {
			if isChild(e) {
				arena[first+uint64(i)] = enqueue(e>>2) << 2 // tagChild is 0: retag implicitly
			}
		}
	}
	t.nodes, t.roots = arena, roots
	return len(queue) + 1
}
