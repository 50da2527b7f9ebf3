package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"github.com/actindex/act/internal/cellid"
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
// TrieFromFlat refuses header fields no builder produces. (A section cut
// short is the index file decoder's to refuse; the root package's
// serialization tests cut files.)
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
}
