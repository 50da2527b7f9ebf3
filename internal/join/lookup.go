package join

import (
	"context"

	"github.com/actindex/act/internal/core"
	"github.com/actindex/act/internal/delta"
	"github.com/actindex/act/internal/geo"
	"github.com/actindex/act/internal/grid"
)

// lookupChunk is the unit of cell-sorting for LookupBatch: large enough
// that sorted probes share long trie path prefixes, small enough that the
// context is checked promptly. It must not exceed 1<<idxBits, the capacity
// of the packed sort keys.
const lookupChunk = 4096

// LookupBatch probes every point against the trie through the join engine's
// probe kernel, one lookupChunk of points at a time: fn receives each
// point's index into points, whether anything matched, and its result — the
// base trie's references merged with ov, the live index's delta layer, when
// that is non-nil — in cell-sorted order within each chunk. res is reset and
// reused between invocations, so fn must copy anything it keeps. The
// context is checked before each chunk; on cancellation the remaining
// chunks are skipped and the context's error is returned. A cancellation
// that lands after the last chunk was already probed is not an error: the
// batch is complete, so LookupBatch returns nil.
func LookupBatch(ctx context.Context, g grid.Grid, t *core.Trie, ov *delta.Overlay, points []geo.LatLng, fn func(i int, hit bool, res *core.Result)) error {
	s := getScratch()
	defer putScratch(s)
	for lo := 0; lo < len(points); lo += lookupChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(lo+lookupChunk, len(points))
		s.probe(g, t, ov, points[lo:hi], func(k int, hit bool) { fn(lo+s.point(k), hit, &s.res) })
	}
	return nil
}
