package act

// Status is one consistent read of everything an index reports about itself:
// the shape of its base trie (the paper's Table I quantities), its mutation
// layer, its role and fence, and its write-ahead log. Every field comes from
// one epoch, one role and one read of the log's counters, so the fields agree
// with each other: Build.NumPolygons + DeltaPolygons − Tombstones is Live.
type Status struct {
	// Build describes the current base trie: the initial build's, until a
	// compaction replaces the base.
	Build BuildStats
	// WAL holds the attached log's counters; the zero value means no log.
	WAL WALStats
	// Live counts the live polygons: build, plus Inserts, minus Removes.
	Live int
	// DeltaPolygons counts the inserts since the base trie was built, the
	// ones removed since included, and Tombstones the removals since then,
	// of base and delta polygons alike; an insert removed before a
	// compaction counts in both. Their sum, the pending mutations, is
	// measured against Threshold, the pending count that triggers
	// background compaction (negative: never). A compaction folds what its
	// snapshot of the index held and leaves the mutations that landed while
	// it ran pending.
	DeltaPolygons int
	Tombstones    int
	Threshold     int
	// Compactions counts completed compactions over the index lifetime.
	Compactions uint64
	// Seq is the sequence number of the last mutation applied. A loaded
	// file carries none, so a bootstrapped follower reports 0 until a
	// streamed record changes it; its replication position is the
	// follower's own (replica.Status.AppliedSeq), which Promote adopts.
	Seq uint64
	// Generation counts epoch publications: it advances on every Insert,
	// Remove, compaction and promotion.
	Generation uint64
	// Mutable reports whether Insert and Remove are accepted by role: true
	// for indexes built by New or resurrected by Recover (and promoted
	// followers), false for ReadIndex/OpenIndex and for followers. A fence
	// or a failed log refuses mutations without changing it.
	Mutable bool
	// Follower reports a replication follower, until Promote returns.
	Follower bool
	// FencedAt is the replication epoch the index was fenced at (see
	// Fence); 0 means not fenced.
	FencedAt uint64
	// HasGeometry reports whether the index carries the exact geometry that
	// refines candidates; without it only approximate lookups are served.
	HasGeometry bool
	// Mapped reports whether the trie is served from a file mapping
	// (OpenIndex's zero-copy path) rather than heap memory. It turns false
	// when a compaction of a recovered or follower index replaces that trie.
	Mapped bool
}

// Status reads the index's state once: the epoch and its generation, the
// role, the fence and the log's counters.
func (ix *Index) Status() Status {
	ep, gen := ix.live.LoadGeneration()
	rs := ix.rs.Load()
	st := Status{
		Build:         ep.stats,
		Live:          ep.live,
		DeltaPolygons: ep.ov.NumPolygons(),
		Tombstones:    ep.removed,
		Threshold:     ix.deltaThreshold,
		Compactions:   ep.compactions,
		Seq:           ep.seq,
		Generation:    gen,
		Mutable:       rs.role == primary,
		Follower:      rs.role == follower || rs.role == promoting,
		FencedAt:      ix.fencedAt.Load(),
		HasGeometry:   ep.store != nil,
		Mapped:        ix.mapped != nil && ix.mapped.backs(ep.trie),
	}
	if rs.wal != nil {
		ws := rs.wal.Stats()
		st.WAL = WALStats{
			Enabled:          true,
			Seq:              ws.Seq,
			BaseSeq:          ws.BaseSeq,
			Epoch:            ws.Epoch,
			SnapshotPath:     rs.snapshotPath,
			Bytes:            ws.Bytes,
			LastSync:         ws.LastSync,
			Checkpoints:      ws.Checkpoints,
			RecoveredRecords: rs.walRecovered,
			Failed:           ws.Failed,
		}
	}
	return st
}

// Stats returns the current base trie's build statistics.
//
// Deprecated: use Status().Build.
func (ix *Index) Stats() BuildStats { return ix.Status().Build }

// WALStats returns the attached log's durability counters.
//
// Deprecated: use Status().WAL.
func (ix *Index) WALStats() WALStats { return ix.Status().WAL }
