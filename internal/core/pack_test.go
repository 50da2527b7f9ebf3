package core

import (
	"testing"
	"time"
)

// TestChainBoundsCollidingHashes packs blocks forged so that every block's
// first word and last word hash alike, though no two words are equal: every
// block is a candidate successor of every other, and none may follow any.
// Each overlap lookup looks at no more than maxCandidates of them, so the
// rounds stay linear; walking every candidate would take 40 000² word
// comparisons a round.
func TestChainBoundsCollidingHashes(t *testing.T) {
	const n = 40000
	src := make([]uint64, 0, 2*n)
	for i := range uint64(2 * n) {
		src = append(src, colliding(t, i))
	}
	p := packer{src: src}
	p.reserve(n)
	for i := range uint64(n) {
		p.intern(2*i, 2)
	}
	p.taken = make([]uint64, (n+63)/64)
	start := time.Now()
	p.overlaps()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("chaining %d blocks with colliding end hashes took %v", n, elapsed)
	}
	for id, b := range p.blocks {
		if b.next != 0 {
			t.Fatalf("block %d was chained to block %d, whose words differ", id, b.next-1)
		}
	}
}

// colliding returns the i-th of a run of distinct words whose scrambles,
// and so whose one-word hashes in the packer, agree in their top 32 bits.
func colliding(t *testing.T, i uint64) uint64 {
	// Invert scramble: the multiplication, then the shift.
	y := (0xdeadbeef<<32 | i) * 0x4f74430c22a54005
	w := y ^ y>>31 ^ y>>62
	if scramble(w)>>32 != 0xdeadbeef {
		t.Fatal("colliding does not invert scramble")
	}
	return w
}

// TestPackerPins packs blocks that make each of the packer's bounds bind,
// and pins the arena it lays out and the end hashes that group overlap
// candidates. The packer's rule defines the packed
// layout, and so which index files of versions 13 and 14 load: if this
// arena changes, so does the layout of some trie, and the change needs a
// new index version.
func TestPackerPins(t *testing.T) {
	seq := func(from, n uint64) []uint64 {
		w := make([]uint64, n)
		for i := range w {
			w[i] = from + uint64(i)
		}
		return w
	}
	// The blocks, in first-use order, for maxContained 4, maxOverlap 8 and
	// maxCandidates 8.
	blocks := [][]uint64{
		seq(100, 6),            // 0: a palette holding the next two
		seq(101, 4),            // 1: named inside block 0
		seq(100, 5),            // 2: too long to be named inside
		seq(200, 10),           // 3: overlaps the next by 9 words
		seq(201, 10),           // 4: so begins a chain of its own
		seq(300, 10),           // 5: overlaps the next by 8 words
		seq(302, 10),           // 6: so follows it
		{500, colliding(t, 0)}, // 7: ends like block 17 begins
	}
	for i := range uint64(9) {
		// Blocks whose first words hash like block 7's last: more
		// candidates than it looks at, none of which may follow it.
		blocks = append(blocks, []uint64{colliding(t, 1+i), 1000 + i})
	}
	blocks = append(blocks, []uint64{colliding(t, 0), 2000}) // past the candidates looked at
	var src []uint64
	for _, b := range blocks {
		src = append(src, b...)
	}
	p := packer{src: src}
	p.reserve(len(blocks))
	at := uint64(0)
	for _, b := range blocks {
		p.intern(at, uint64(len(b)))
		at += uint64(len(b))
	}
	var top blockSet
	top.reserve(0)
	arena, err := p.pack([]uint64{0}, &top, false)
	if err != nil {
		t.Fatal(err)
	}
	bs := p.blocks
	switch last := len(bs) - 1; {
	case bs[1].in != 1 || bs[2].in != 0:
		t.Errorf("blocks 1 and 2 named inside blocks %d and %d, want 0 and none", int(bs[1].in)-1, int(bs[2].in)-1)
	case bs[3].next != 0 || bs[5].next != 7 || bs[5].overlap != 8:
		t.Errorf("blocks 3 and 5 followed by %d and %d (%d words shared), want none and 6 (8)", int(bs[3].next)-1, int(bs[5].next)-1, bs[5].overlap)
	case bs[7].next != 0 || bs[last].next != 0 || p.isTaken(uint32(last)):
		t.Errorf("block 7 followed by %d, want none", int(bs[7].next)-1)
	}
	if got, want := (Flat{Nodes: arena}).SectionCRC(), uint64(0x8b655ab37d617607); got != want {
		t.Errorf("packed arena of %d words, CRC %#x, pinned %#x", len(arena), got, want)
	}
	// The end hashes group the candidates, so only colliding ends show a
	// change to them in the arena: pin them too.
	ends := uint64(0)
	for k := range p.pre {
		for id := range bs {
			ends = ends*0x100000001b3 ^ uint64(p.pre[k][id])<<32 ^ uint64(p.suf[k][id])
		}
	}
	if want := uint64(0x6d99e4086048d6ea); ends != want {
		t.Errorf("end hashes fold to %#x, pinned %#x", ends, want)
	}
}
