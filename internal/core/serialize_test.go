package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/actindex/act/internal/cellid"
	"github.com/actindex/act/internal/supercover"
)

func buildRandomTrie(t *testing.T, cfg Config, seed int64) *Trie {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	polys := map[uint32]struct{ boundary, interior []cellid.ID }{}
	for p := uint32(0); p < 12; p++ {
		var entry struct{ boundary, interior []cellid.ID }
		for c := 0; c < 1+rng.Intn(8); c++ {
			leaf := cellid.FromFaceIJ(rng.Intn(3), rng.Intn(cellid.MaxSize), rng.Intn(cellid.MaxSize))
			cell := leaf.Parent(1 + rng.Intn(cellid.MaxLevel))
			if rng.Intn(2) == 0 {
				entry.boundary = append(entry.boundary, cell)
			} else {
				entry.interior = append(entry.interior, cell)
			}
		}
		polys[p] = entry
	}
	trie, err := Build(buildSC(t, polys), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return trie
}

// flatSection returns the bytes WriteSection produces for the trie.
func flatSection(t *testing.T, f Flat) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteSection(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrieSerializationRoundTrip streams a trie's flat section out, decodes
// the words back, and reassembles it with TrieFromFlat: structure, section
// checksum and lookups must survive, and a second WriteSection must be
// byte-identical.
func TestTrieSerializationRoundTrip(t *testing.T) {
	for _, cfg := range []Config{
		{Fanout: 256},
		{Fanout: 16},
		{Fanout: 4, DisableInlining: true},
	} {
		trie := buildRandomTrie(t, cfg, int64(cfg.Fanout))
		f := trie.Flat()
		section := flatSection(t, f)
		nw := 8 * len(f.Nodes)
		if want := nw + 4*len(f.Table); len(section) != want {
			t.Fatalf("fanout %d: section is %d bytes, want %d", cfg.Fanout, len(section), want)
		}
		sel, head, _, _ := encodeFlatFuzz(f)
		back, err := TrieFromFlat(decodeFlatFuzz(sel, head, section[:nw], section[nw:]))
		if err != nil {
			t.Fatalf("fanout %d: %v", cfg.Fanout, err)
		}
		// Structural equality.
		if back.fanout != trie.fanout || len(back.nodes) != len(trie.nodes) ||
			len(back.table) != len(trie.table) || back.roots != trie.roots ||
			back.rootSkip != trie.rootSkip || back.rootPrefix != trie.rootPrefix {
			t.Fatalf("fanout %d: structure mismatch after round trip", cfg.Fanout)
		}
		if back.Flat().SectionCRC() != f.SectionCRC() || !bytes.Equal(flatSection(t, back.Flat()), section) {
			t.Fatalf("fanout %d: section is not byte-stable through a round trip", cfg.Fanout)
		}
		// Behavioural equality on random probes.
		rng := rand.New(rand.NewSource(9))
		var r1, r2 Result
		for q := 0; q < 3000; q++ {
			leaf := cellid.FromFaceIJ(rng.Intn(3), rng.Intn(cellid.MaxSize), rng.Intn(cellid.MaxSize))
			r1.Reset()
			r2.Reset()
			h1 := trie.Lookup(leaf, &r1)
			h2 := back.Lookup(leaf, &r2)
			if h1 != h2 || !r1.Equal(&r2) {
				t.Fatalf("fanout %d: lookup diverges at %v", cfg.Fanout, leaf)
			}
		}
	}
}

// TestTrieSerializationErrors: a flipped bit moves the section checksum, and
// TrieFromFlat refuses header fields no builder produces and arenas whose
// blocks lie where Relayout never puts them. (A section cut short is the
// index file decoder's to refuse; the root package's serialization tests cut
// files.)
func TestTrieSerializationErrors(t *testing.T) {
	trie := buildRandomTrie(t, DefaultConfig(), 1)
	good := trie.Flat()
	nw := uint64(len(good.Nodes))

	bad := good
	bad.Nodes = slices.Clone(good.Nodes)
	bad.Nodes[nw/2] ^= 0x01
	if bad.SectionCRC() == good.SectionCRC() {
		t.Error("bit flip left the section checksum unchanged")
	}

	for name, mutate := range map[string]func(*Flat){
		"fanout":            func(f *Flat) { f.Fanout = 7 },
		"root-skip-range":   func(f *Flat) { f.Skips[0] = 64 },
		"root-skip-align":   func(f *Flat) { f.Skips[0] = 3 },
		"arena-not-whole":   func(f *Flat) { f.Nodes = f.Nodes[:len(f.Nodes)-1] },
		"root-out-of-range": func(f *Flat) { f.Roots[5] = nw },
	} {
		f := good
		mutate(&f)
		if _, err := TrieFromFlat(f); err == nil {
			t.Errorf("%s: forged flat header accepted", name)
		}
	}
	if _, err := TrieFromFlat(good); err != nil {
		t.Fatalf("pristine flat form rejected: %v", err)
	}

	// The layout rules, on a fanout-4 trie whose arena is spelled out: a
	// root over A, A again, B and C — A and B leaves with equal codes, A twice
	// because its slots hang equal leaves, C a node over the leaf D. C's code
	// block comes first, in the top region, and every leaf names it; the
	// leaf palettes follow.
	built := sharingTrie(t)
	e := func(pal, end uint64) uint64 { return childEntry(pal, end, 1) }
	one := func(id uint64) uint64 { return (id<<1|1)<<2 | tagOne }
	packed := []uint64{
		0, 0, // the sentinel
		0b11_10_01_00,                         // root codes: slot i selects entry i
		e(10, 8), e(10, 8), e(12, 8), e(8, 8), // root palette: A, A, B, C
		0b1110,      // C's codes: slot 0 entry 0, the rest entry 1
		e(14, 8), 0, // C's palette
		one(0), 0, // A's palette; A names C's codes
		one(1), 0, // B's
		one(2), 0, // D's
	}
	if f := built.Flat(); !slices.Equal(f.Nodes, packed) || f.Roots[0] != childEntry(3, 3, 2) {
		t.Fatalf("the sharing trie's arena is %#x, root %#x; want %#x", f.Nodes, f.Roots[0], packed)
	}
	packedFlat := func() Flat {
		f := built.Flat()
		f.Nodes = slices.Clone(f.Nodes)
		return f
	}
	for _, tc := range []struct {
		name, want string
		forge      func() Flat
	}{
		// B stores the code block C stored, instead of naming it.
		{"second-copy-of-code-block", "the layout puts", func() Flat {
			f := packedFlat()
			f.Nodes = []uint64{0, 0, 0b11_10_01_00, e(10, 8), e(10, 8), e(13, 13), e(8, 8),
				0b1110, e(15, 8), 0, one(0), 0, 0b1110, one(1), 0, one(2), 0}
			return f
		}},
		// The second A stores the palette the first stored.
		{"second-copy-of-palette", "the layout puts", func() Flat {
			f := packedFlat()
			f.Nodes = []uint64{0, 0, 0b11_10_01_00, e(10, 8), e(12, 8), e(14, 8), e(8, 8),
				0b1110, e(16, 8), 0, one(0), 0, one(0), 0, one(1), 0, one(2), 0}
			return f
		}},
		// B is C: two parents of D, which a walk would reach twice over.
		{"shared-palette-holds-child", "is reached already", func() Flat {
			f := packedFlat()
			f.Nodes = []uint64{0, 0, 0b11_10_01_00, e(10, 8), e(10, 8), e(8, 8), e(8, 8),
				0b1110, e(12, 8), 0, one(0), 0, one(2), 0}
			return f
		}},
		// B names a palette [C's codes, C's child entry] that overlaps C's
		// code block and palette, in codes stored past the arena's end: D
		// would hang from B and from C. B, which now holds a child entry,
		// is refused where it is reached: the layout stores it anew.
		{"overlapping-palettes-share-a-child", "the layout puts", func() Flat {
			f := packedFlat()
			f.Nodes = append(f.Nodes, 0b0010)
			f.Nodes[5] = childEntry(7, 17, 1)
			return f
		}},
		// B's palette is named at the arena's end.
		{"leaf-palette-past-arena", "runs past the arena", func() Flat {
			f := packedFlat()
			f.Nodes[5] = e(16, 8)
			return f
		}},
		// B's code block is named past the arena's end.
		{"leaf-codes-past-arena", "outside the arena", func() Flat {
			f := packedFlat()
			f.Nodes[5] = e(12, 17)
			return f
		}},
		// B names its codes at a place of their words the layout does not
		// put them.
		{"leaf-block-misplaced", "the layout puts", func() Flat {
			f := packedFlat()
			f.Nodes[5] = childEntry(12, 7, 1)
			f.Nodes[6] = 0b1110 // C's code block, now where B names it too
			return f
		}},
	} {
		if _, err := TrieFromFlat(tc.forge()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: forged arena refused with %v, want the rule %q", tc.name, err, tc.want)
		}
	}
	if _, err := TrieFromFlat(packedFlat()); err != nil {
		t.Errorf("control arena rejected: %v", err)
	}
}

// TestMovedLeafBlockRefused takes Build's arena for coverings whose leaf
// blocks recur and names one leaf block at another place its words occur:
// lookups would not notice, but the arena is no longer the one Relayout
// produces, so TrieFromFlat refuses it.
func TestMovedLeafBlockRefused(t *testing.T) {
	moved := 0
	for seed := range int64(8) {
		rng := rand.New(rand.NewSource(seed))
		sc := randomPrefixFreeCovering(t, rng, []int{int(seed % 6)}, 60+20*int(seed))
		for _, fanout := range fanouts {
			trie, err := Build(sc, Config{Fanout: fanout})
			if err != nil {
				t.Fatal(err)
			}
			f, ok := moveLeafBlock(trie)
			if !ok {
				continue
			}
			moved++
			if _, err := TrieFromFlat(f); err == nil || !strings.Contains(err.Error(), "the layout puts") {
				t.Errorf("seed %d fanout %d: moved leaf block refused with %v, want the layout's placement", seed, fanout, err)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no covering has a leaf block whose words recur; the test exercises nothing")
	}
}

// moveLeafBlock returns the flat form of t with the first child entry naming
// a leaf whose code block or palette words occur at a second place in the
// arena renamed to that place, and whether there was one.
func moveLeafBlock(t *Trie) (Flat, bool) {
	f := t.Flat()
	f.Nodes = slices.Clone(f.Nodes)
	elsewhere := func(start, n uint64) (uint64, bool) {
		for s := uint64(0); s+n <= uint64(len(f.Nodes)); s++ {
			if s != start && slices.Equal(f.Nodes[s:s+n], f.Nodes[start:start+n]) {
				return s, true
			}
		}
		return 0, false
	}
	var queue []uint64 // palettes holding child entries, as [pal, d] pairs
	for _, root := range t.roots {
		if root != 0 {
			queue = append(queue, paletteAt(root), uint64(len(t.palette(root))))
		}
	}
	for qi := 0; qi < len(queue); qi += 2 {
		for at := queue[qi]; at < queue[qi]+queue[qi+1]; at++ {
			e := f.Nodes[at]
			if !isChild(e) {
				continue
			}
			palette := t.palette(e)
			if slices.ContainsFunc(palette, isChild) {
				queue = append(queue, paletteAt(e), uint64(len(palette)))
				continue
			}
			pal, end, w := paletteAt(e), codeEnd(e), widthOf(e)
			c := codeWords(t.fanout, w)
			if s, ok := elsewhere(end-c, c); ok && s > 0 {
				f.Nodes[at] = childEntry(pal, s+c, w)
				return f, true
			}
			if s, ok := elsewhere(pal, uint64(len(palette))); ok {
				f.Nodes[at] = childEntry(s, end, w)
				return f, true
			}
		}
	}
	return f, false
}

// sharingTrie builds the fanout-4 trie TestTrieSerializationErrors spells
// out: on face 0, polygon 0 in cells 0.0 and 1.0, polygon 1 in 2.0, and
// polygon 2 in 3.0.0.
func sharingTrie(t testing.TB) *Trie {
	t.Helper()
	f0 := cellid.FromFace(0)
	var b supercover.Builder
	for _, c := range []struct {
		cell cellid.ID
		id   uint32
	}{
		{f0.Child(0).Child(0), 0},
		{f0.Child(1).Child(0), 0},
		{f0.Child(2).Child(0), 1},
		{f0.Child(3).Child(0).Child(0), 2},
	} {
		if err := b.AddCell(c.cell, []supercover.Ref{{PolygonID: c.id, Interior: true}}); err != nil {
			t.Fatal(err)
		}
	}
	trie, err := Build(b.Build(), Config{Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	return trie
}

// TestDAGBombRefused forges a fanout-4 arena of ten nodes, each of whose four
// slots names the next node: a walk over every node reached (validation,
// Cells, ComputeStats) would visit 4^10 of them. The nodes share one code
// block, which is allowed, and each names the palette of the next, which
// holds child entries — so the validator refuses the arena at the second
// name, which reaches those child entries again, without following one path. The control, where
// only slot 0 names the next node, loads.
func TestDAGBombRefused(t *testing.T) {
	const levels = 10
	const pal0 = 3 // after the sentinel {0, 0} and the one shared code word
	one := func(id uint64) uint64 { return (id<<1|1)<<2 | tagOne }
	forge := func(bomb bool) Flat {
		arena := []uint64{0, 0, 0b11_10_01_00}
		for level := uint64(1); level <= levels; level++ {
			palette := []uint64{0, one(1), one(2), one(3)} // the last node's
			if next := childEntry(pal0+4*level, pal0, 2); level < levels && bomb {
				palette = []uint64{next, next, next, next}
			} else if level < levels {
				palette[0] = next
			}
			arena = append(arena, palette...)
		}
		f := Flat{Fanout: 4, Nodes: arena}
		f.Roots[0] = childEntry(pal0, pal0, 2)
		return f
	}
	if _, err := TrieFromFlat(forge(false)); err != nil {
		t.Fatalf("control chain rejected: %v", err)
	}
	start := time.Now()
	_, err := TrieFromFlat(forge(true))
	if elapsed := time.Since(start); err == nil || !strings.Contains(err.Error(), "is reached already") || elapsed > 100*time.Millisecond {
		t.Fatalf("DAG bomb refused with %v after %v, want the child entry reached twice at once", err, elapsed)
	}
}

// TestLeafBombsRefused forges a fanout-256 arena whose entries name far more
// words than the arena holds, and demands that loading refuses it at once,
// allocating no more than twice the arena's size: a root hangs 256 nodes,
// each of which names 256 leaves of 256 entries, 16.8 M palette words in
// all. The leaves' palettes are 65 536 distinct windows of one run of
// values, each leaf costing the arena two words. Packing them would store
// each window whole; the leaf blocks' words outrun the arena after a few
// hundred leaves. The control, which names one leaf where the layout puts
// it, loads.
func TestLeafBombsRefused(t *testing.T) {
	const fanout, nodes = 256, 256
	one := func(id uint64) uint64 { return (id<<1|1)<<2 | tagOne }
	// ident is the code block numbering slot i i: 8-bit codes, the last
	// word first.
	ident := make([]uint64, codeWords(fanout, 8))
	for i := range uint64(fanout) {
		ident[uint64(len(ident))-1-i/8] |= i << (i % 8 * 8)
	}
	sentinel := make([]uint64, codeWords(fanout, 1)+1)
	packed := func(bomb bool) Flat {
		// The sentinel, the root's codes, which every node shares, the
		// root's palette, the nodes' palettes, then the leaves' blocks.
		arena := append(slices.Clone(sentinel), ident...)
		codesEnd := uint64(len(arena))
		rootPal := codesEnd
		nodesPal := rootPal + nodes
		run := nodesPal + nodes*fanout
		for k := range uint64(nodes) {
			arena = append(arena, childEntry(nodesPal+k*fanout, codesEnd, 8))
		}
		for j := range uint64(nodes * fanout) {
			leaf := childEntry(run, codesEnd, 8) // the control: one leaf
			if bomb {
				leaf = childEntry(run+j, codesEnd, 8)
			}
			arena = append(arena, leaf)
		}
		for v := range uint64(fanout) + nodes*fanout - 1 {
			if !bomb && v == fanout {
				break
			}
			arena = append(arena, one(v))
		}
		f := Flat{Fanout: fanout, Nodes: arena}
		f.Roots[0] = childEntry(rootPal, codesEnd, 8)
		return f
	}
	for _, tc := range []struct {
		name  string
		forge func(bomb bool) Flat
		want  string
	}{
		{"packed", packed, "the layout puts the nodes named so far past the arena's"},
	} {
		if _, err := TrieFromFlat(tc.forge(false)); err != nil {
			t.Fatalf("%s: control rejected: %v", tc.name, err)
		}
		f := tc.forge(true)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := TrieFromFlat(f)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		allocated := after.TotalAlloc - before.TotalAlloc
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: bomb refused with %v, want %q", tc.name, err, tc.want)
		}
		if arena := uint64(8 * len(f.Nodes)); allocated > 2*arena || elapsed > time.Second {
			t.Errorf("%s: refusing a %d-byte arena took %v and allocated %d bytes", tc.name, arena, elapsed, allocated)
		}
	}
}
