package act

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// fuzzSeedIndexes builds tiny deterministic indexes (three hand-made
// polygons, coarse precision, a few kilobytes serialized) whose byte
// streams seed the deserialization fuzzer: per grid kind, version 13 with
// geometry and approximate-only, and — one polygon removed and compacted
// away — version 14 with its id column, with geometry and approximate-only.
func fuzzSeedIndexes(t testing.TB) [][]byte {
	t.Helper()
	polys := []*Polygon{
		{Outer: []LatLng{{Lat: 40.70, Lng: -74.00}, {Lat: 40.70, Lng: -73.97}, {Lat: 40.73, Lng: -73.97}}},
		{Outer: []LatLng{{Lat: 40.71, Lng: -73.99}, {Lat: 40.71, Lng: -73.95}, {Lat: 40.75, Lng: -73.95}, {Lat: 40.75, Lng: -73.99}},
			Holes: [][]LatLng{{{Lat: 40.72, Lng: -73.97}, {Lat: 40.72, Lng: -73.96}, {Lat: 40.73, Lng: -73.96}}}},
		{Outer: []LatLng{{Lat: 40.80, Lng: -73.96}, {Lat: 40.80, Lng: -73.93}, {Lat: 40.82, Lng: -73.95}}},
	}
	serialize := func(idx *Index) []byte {
		var buf bytes.Buffer
		if _, err := idx.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ctx := context.Background()
	var seeds [][]byte
	for _, gk := range []GridKind{PlanarGrid, CubeFaceGrid} {
		for _, geometry := range []bool{true, false} {
			idx, err := New(polys, WithPrecision(2000), WithGrid(gk), WithFanout(16),
				WithGeometryStore(geometry), WithDeltaThreshold(-1))
			if err != nil {
				t.Fatal(err)
			}
			seeds = append(seeds, serialize(idx))
			if err := idx.Remove(ctx, 1); err != nil {
				t.Fatal(err)
			}
			if err := idx.Compact(ctx); err != nil {
				t.Fatal(err)
			}
			seeds = append(seeds, serialize(idx))
		}
	}
	return seeds
}

// FuzzDeserialize feeds arbitrary bytes to ReadIndex: it must reject
// corruption with an error — never panic, never over-allocate on lying
// length fields — and any stream it does accept must re-serialize into a
// stream it accepts again, byte-identically (serialize → deserialize →
// serialize is a fixed point). The image it accepted must decode under the
// mapped policy too, without the arena checksum, into the same index. Only
// versions 13 and 14 are accepted: the last seed is a sparse-id file
// restamped as version 12, and the checked-in corpus holds version 7 and 8
// files, retired versions that must be refused.
func FuzzDeserialize(f *testing.F) {
	seeds := fuzzSeedIndexes(f)
	for _, seed := range seeds {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-3])
	}
	f.Add([]byte("ACTX"))
	f.Add([]byte("not an index at all"))
	retired := bytes.Clone(seeds[1])
	binary.LittleEndian.PutUint32(retired[4:], 12)
	binary.LittleEndian.PutUint64(retired[flatHeaderCRCBytes:], crc64.Checksum(retired[:flatHeaderCRCBytes], flatCRCTable))
	f.Add(retired)
	f.Fuzz(func(t *testing.T, input []byte) {
		ix, err := ReadIndex(bytes.NewReader(input))
		if err != nil {
			return
		}
		if v := binary.LittleEndian.Uint32(input[4:]); v != indexVersion && v != indexVersionSparse {
			t.Fatalf("index version %d accepted", v)
		}
		var b1 bytes.Buffer
		if _, err := ix.WriteTo(&b1); err != nil {
			t.Fatalf("accepted index fails to serialize: %v", err)
		}
		// ReadIndex read exactly the header's fileSize bytes of the input.
		mapped, err := decodeImage(input[:binary.LittleEndian.Uint64(input[96:])], nil, false)
		if err != nil {
			t.Fatalf("image refused under the mapped policy: %v", err)
		}
		var bm bytes.Buffer
		if _, err := mapped.WriteTo(&bm); err != nil || !bytes.Equal(bm.Bytes(), b1.Bytes()) {
			t.Fatalf("mapped policy serializes differently (error %v)", err)
		}
		ix2, err := ReadIndex(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("own serialization rejected: %v", err)
		}
		var b2 bytes.Buffer
		if _, err := ix2.WriteTo(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("serialize → deserialize → serialize is not byte-identical")
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzDeserialize. It only runs when ACT_WRITE_FUZZ_CORPUS=1
// is set, so `go test` stays read-only:
//
//	ACT_WRITE_FUZZ_CORPUS=1 go test -run TestWriteFuzzCorpus .
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("ACT_WRITE_FUZZ_CORPUS") != "1" {
		t.Skip("set ACT_WRITE_FUZZ_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDeserialize")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := fuzzSeedIndexes(t)
	seeds = append(seeds, seeds[0][:len(seeds[0])/2], []byte("ACTX"), []byte("garbage"))
	for i, seed := range seeds {
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d corpus entries to %s", len(seeds), dir)
}
