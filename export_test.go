package act

// Test-only accessors into the index's serving epoch. Index can no longer
// be copied by value (it carries mutexes and its atomic epoch holder), so
// tests that used to clone-and-nil the store field go through
// stripGeometry instead.

// stripGeometry returns a read-only view of ix serving the same base trie
// without a geometry store, for exercising approximate-only serialization
// without rebuilding the index.
func stripGeometry(ix *Index) *Index {
	ep := ix.live.Load()
	clone := &Index{
		grid:      ix.grid,
		kind:      ix.kind,
		precision: ix.precision,
	}
	clone.deltaThreshold = defaultDeltaThreshold
	clone.liveCount.Store(ix.liveCount.Load())
	clone.idSpace.Store(ix.idSpace.Load())
	clone.live.Swap(&epoch{trie: ep.trie, ov: ep.ov, stats: ep.stats})
	return clone
}
