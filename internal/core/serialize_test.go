package core

import (
	"bytes"
	"math/rand"
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
// TrieFromFlat refuses header fields no builder produces and arenas that
// share blocks in a way Relayout never does. (A section cut short is the
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

	// The sharing rules, on a fanout-4 trie whose arena is spelled out: a
	// root over A, A again, B and C — A and B leaves with equal codes, A twice
	// because its slots hang equal leaves, C a node over the leaf D.
	shared := sharingTrie(t)
	e := func(pal, end uint64) uint64 { return childEntry(pal, end, 0) }
	one := func(id uint64) uint64 { return (id<<1|1)<<2 | tagOne }
	want := []uint64{
		0, 0, // the sentinel
		0b11_10_01_00,                        // root codes: slot i selects entry i
		e(8, 8), e(8, 8), e(10, 8), e(12, 8), // root palette: A, A, B, C
		0b1110,    // A's codes: slot 0 entry 0, the rest entry 1
		one(0), 0, // A's palette
		one(1), 0, // B's palette; B names A's codes
		e(14, 8), 0, // C's palette; C names A's codes
		one(2), 0, // D's palette; D names A's codes
	}
	if f := shared.Flat(); !slices.Equal(f.Nodes, want) || f.Roots[0] != childEntry(3, 3, 1) {
		t.Fatalf("the sharing trie's arena is %#x, root %#x; want %#x", f.Nodes, f.Roots[0], want)
	}
	unshared := func() Flat {
		f := layoutUnshared(shared).Flat()
		f.Unshared = true
		return f
	}
	for _, tc := range []struct {
		name, want string
		forge      func() Flat
	}{
		// C names a code block past D's palette, where no block is stored
		// yet.
		{"block-named-before-stored", "breadth-first order puts it at", func() Flat {
			f := shared.Flat()
			f.Nodes = slices.Clone(f.Nodes)
			f.Nodes[6] = e(12, 15)
			return f
		}},
		// B stores the code block A stored, instead of naming it.
		{"second-copy-of-code-block", "second copy of the 1-bit code block at 7", func() Flat {
			f := shared.Flat()
			f.Nodes = []uint64{0, 0, 0b11_10_01_00, e(8, 8), e(8, 8), e(11, 11), e(13, 8),
				0b1110, one(0), 0, 0b1110, one(1), 0, e(15, 8), 0, one(2), 0}
			return f
		}},
		// The second A stores the palette the first stored.
		{"second-copy-of-palette", "second copy of the palette at 8", func() Flat {
			f := shared.Flat()
			f.Nodes = []uint64{0, 0, 0b11_10_01_00, e(8, 8), e(10, 8), e(12, 8), e(14, 8),
				0b1110, one(0), 0, one(0), 0, one(1), 0, e(16, 8), 0, one(2), 0}
			return f
		}},
		// B is C: two parents of D, which a walk would reach twice over.
		{"shared-palette-holds-child", "which holds a child entry", func() Flat {
			f := shared.Flat()
			f.Nodes = []uint64{0, 0, 0b11_10_01_00, e(8, 8), e(8, 8), e(10, 8), e(10, 8),
				0b1110, one(0), 0, e(12, 8), 0, one(2), 0}
			return f
		}},
		// B names the palette {empty, id 1} that starts inside A's.
		{"name-inside-stored-block", "not a stored shareable palette", func() Flat {
			f := shared.Flat()
			f.Nodes = slices.Clone(f.Nodes)
			f.Nodes[8], f.Nodes[9], f.Nodes[10], f.Nodes[11] = one(0), 0, one(1), 0
			f.Nodes[5] = e(9, 8)
			return f
		}},
		// An arena of index version 7 or 8 shares nothing: B names A's
		// codes there too.
		{"distance-in-unshared-arena", "in an arena that shares no blocks", func() Flat {
			f := unshared()
			f.Nodes = slices.Clone(f.Nodes)
			f.Nodes[5] = childEntry(paletteAt(f.Nodes[5]), 8, 0)
			return f
		}},
	} {
		if _, err := TrieFromFlat(tc.forge()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: forged arena refused with %v, want the rule %q", tc.name, err, tc.want)
		}
	}
	for name, f := range map[string]Flat{"shared": shared.Flat(), "unshared": unshared()} {
		if _, err := TrieFromFlat(f); err != nil {
			t.Errorf("%s control arena rejected: %v", name, err)
		}
	}
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
// holds child entries and is never shared — so the validator refuses the
// arena at the second name, without following one path. The control, where
// only slot 0 names the next node, loads.
func TestDAGBombRefused(t *testing.T) {
	const levels = 10
	const pal0 = 3 // after the sentinel {0, 0} and the one shared code word
	one := func(id uint64) uint64 { return (id<<1|1)<<2 | tagOne }
	forge := func(bomb bool) Flat {
		arena := []uint64{0, 0, 0b11_10_01_00}
		for level := uint64(1); level <= levels; level++ {
			palette := []uint64{0, one(1), one(2), one(3)} // the last node's
			if next := childEntry(pal0+4*level, pal0, 1); level < levels && bomb {
				palette = []uint64{next, next, next, next}
			} else if level < levels {
				palette[0] = next
			}
			arena = append(arena, palette...)
		}
		f := Flat{Fanout: 4, Nodes: arena}
		f.Roots[0] = childEntry(pal0, pal0, 1)
		return f
	}
	if _, err := TrieFromFlat(forge(false)); err != nil {
		t.Fatalf("control chain rejected: %v", err)
	}
	start := time.Now()
	_, err := TrieFromFlat(forge(true))
	if elapsed := time.Since(start); err == nil || !strings.Contains(err.Error(), "which holds a child entry") || elapsed > 100*time.Millisecond {
		t.Fatalf("DAG bomb refused with %v after %v, want the shared-palette rule at once", err, elapsed)
	}
}
