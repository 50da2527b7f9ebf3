package act

import (
	"context"

	"github.com/actindex/act/internal/join"
)

// LookupBatch performs one approximate lookup per point and returns the
// results in input order: Results[i].True holds the ids of polygons
// certainly containing points[i], Results[i].Candidates the ids within the
// precision bound — what Lookup in Approximate mode reports for the point.
// Misses yield an empty Result.
//
// The batch runs through the join engine on the calling goroutine, so it
// sees one epoch of the index throughout and is probed through the engine's
// cell-sorted fast path: points are sorted by leaf cell id in chunks, so
// consecutive probes share trie path prefixes and resume deep in the trie.
// Use it for request-scoped serving workloads that score point batches
// against a live index.
//
// The context is checked before each chunk: when it is cancelled with
// chunks still pending, LookupBatch returns ctx.Err() and a nil slice. A
// batch whose every chunk was already probed returns its results and a nil
// error even if the context fired in the meantime — completed work is never
// discarded.
func (ix *Index) LookupBatch(ctx context.Context, points []LatLng) ([]Result, error) {
	sink := join.NewResultSink(len(points))
	if _, err := ix.runJoin(ctx, points, Approximate, 1, func(int) join.Sink { return sink }); err != nil {
		return nil, err
	}
	return sink.Results, nil
}
