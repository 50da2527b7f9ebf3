package act

// Test-only accessors into the index's serving epoch. Index can no longer
// be copied by value (it carries mutexes and its atomic epoch holder), so
// tests that used to clone-and-nil the store field go through
// stripGeometry instead.

// stripGeometry returns a read-only view of ix serving the same state
// without a geometry store, for exercising approximate-only serialization
// without rebuilding the index.
func stripGeometry(ix *Index) *Index {
	ep := *ix.live.Load()
	ep.store = nil
	pl := ix.pl
	pl.hasGeom = false
	return newIndex(ix.kind, pl, &ep)
}
