package act

import (
	"context"

	"github.com/actindex/act/internal/core"
	"github.com/actindex/act/internal/join"
)

// LookupBatch performs one approximate lookup per point and returns the
// results in input order: Results[i].True holds the ids of polygons
// certainly containing points[i], Results[i].Candidates the ids within the
// precision bound. Misses yield an empty Result.
//
// Unlike a loop over Lookup, the batch is probed through the engine's
// cell-sorted fast path: points are sorted by leaf cell id in chunks, so
// consecutive probes share trie path prefixes and resume deep in the trie —
// the same technique that accelerates the joins. Use it for request-scoped
// serving workloads that score point batches against a live index.
//
// The context is checked before each chunk: when it is cancelled with
// chunks still pending, LookupBatch returns ctx.Err() and a nil slice. A
// batch whose every chunk was already probed returns its results and a nil
// error even if the context fired in the meantime — completed work is never
// discarded.
func (ix *Index) LookupBatch(ctx context.Context, points []LatLng) ([]Result, error) {
	defer ix.keepMapped()
	// One epoch for the whole batch: a concurrent mutation or compaction
	// cannot change semantics between chunks.
	ep := ix.live.Load()
	results := make([]Result, len(points))
	err := join.LookupBatch(ctx, ix.pl.grid, ep.trie, ep.ov, points, func(i int, hit bool, res *core.Result) {
		if !hit {
			return
		}
		results[i].True = append(results[i].True, res.True...)
		results[i].Candidates = append(results[i].Candidates, res.Candidates...)
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
