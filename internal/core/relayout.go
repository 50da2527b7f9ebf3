package core

// Relayout renumbers the node arena breadth-first: face roots first, then
// every depth-2 node, and so on — the hottest (shallowest) levels end up
// contiguous at the front of the arena. Build-order numbering is depth-first
// along cell paths, which scatters the heavily shared top levels across the
// arena; after relayout the top of every walk reads from a compact prefix
// that stays cache-resident under batch probing, so only the deep, sparse
// levels can miss. The pass is pure index remapping of the tagChild entries
// (payloads, the lookup table, root skips, and all lookup results are
// untouched) and it is idempotent: relaying out an already breadth-first
// arena is the identity, which is what lets relaid tries round-trip through
// the serializer byte-identically.
//
// Nodes unreachable from any face root are dropped. It returns the number of
// nodes in the resulting arena, including the sentinel — Build-produced
// tries are fully reachable.
func (t *Trie) Relayout() int {
	fanout := uint64(t.fanout)
	numNodes := uint64(len(t.nodes)) / fanout
	if numNodes == 0 {
		return 0
	}
	// remap[old] is the node's breadth-first index; 0 marks both the
	// sentinel and not-yet-visited nodes (the sentinel maps to itself and
	// is never a child, so the overload is safe).
	remap := make([]uint64, numNodes)
	order := make([]uint64, 0, numNodes-1) // BFS queue of old indices
	for _, root := range t.roots {
		if root != 0 && remap[root] == 0 {
			remap[root] = uint64(len(order)) + 1
			order = append(order, root)
		}
	}
	for qi := 0; qi < len(order); qi++ {
		base := order[qi] * fanout
		for _, e := range t.nodes[base : base+fanout] {
			if e != 0 && e&tagMask == tagChild {
				if child := e >> 2; remap[child] == 0 {
					remap[child] = uint64(len(order)) + 1
					order = append(order, child)
				}
			}
		}
	}
	arena := make([]uint64, (uint64(len(order))+1)*fanout)
	for qi, old := range order {
		dst := arena[(uint64(qi)+1)*fanout:]
		src := t.nodes[old*fanout : old*fanout+fanout]
		for s, e := range src {
			if e != 0 && e&tagMask == tagChild {
				e = remap[e>>2] << 2 // tagChild is 0: retag implicitly
			}
			dst[s] = e
		}
	}
	t.nodes = arena
	for f, root := range t.roots {
		if root != 0 {
			t.roots[f] = remap[root]
		}
	}
	return len(order) + 1
}
