package core

// The interleaved engine's names, kept as forwards to LookupBatch only so
// the repository benchmark's layer table compiles; ROADMAP item 5(c)
// deletes this file together with that harness row.

import "github.com/actindex/act/internal/cellid"

// Deprecated: LookupBatch is the trie's one batch walk.
const InterleaveAuto = 0

// Deprecated: LookupBatch needs no scratch.
type BatchScratch struct{}

// InterleaveWidth returns 1 for every request.
//
// Deprecated: LookupBatch is the trie's one batch walk.
func (t *Trie) InterleaveWidth(int) int { return 1 }

// LookupBatchInterleaved calls LookupBatch; width and bs are ignored.
//
// Deprecated: use LookupBatch.
func (t *Trie) LookupBatchInterleaved(leaves []cellid.ID, width int, bs *BatchScratch, res *Result, emit func(i int, hit bool)) {
	t.LookupBatch(leaves, res, emit)
}
