package act

// Tests for the one record-application loop (stage, then publish) behind its two
// entry points — WAL replay at attach time and ApplyReplicated — and for
// the refusal of the format versions neither loader reads any more.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/actindex/act/internal/delta"
	"github.com/actindex/act/internal/geojson"
	"github.com/actindex/act/internal/wal"
)

// recordSquare is the axis-aligned test polygon number i, on a diagonal so
// no two overlap.
func recordSquare(i int) *Polygon {
	c := 10 + 0.5*float64(i)
	return &Polygon{Outer: []LatLng{
		{Lat: c - 0.1, Lng: c - 0.1}, {Lat: c - 0.1, Lng: c + 0.1},
		{Lat: c + 0.1, Lng: c + 0.1}, {Lat: c + 0.1, Lng: c - 0.1},
	}}
}

func insertRecord(t *testing.T, seq uint64, id uint32) wal.Record {
	t.Helper()
	var buf bytes.Buffer
	if err := geojson.WritePolygons(&buf, []*Polygon{recordSquare(int(id))}); err != nil {
		t.Fatal(err)
	}
	return wal.Record{Type: wal.TypeInsert, Seq: seq, ID: id, Data: buf.Bytes()}
}

// writeLog fabricates a log file holding records.
func writeLog(t *testing.T, path string, records []wal.Record) {
	t.Helper()
	log, _, err := wal.Open(path, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// mutationState is everything publish may change, in comparable form.
type mutationState struct {
	alive   []bool
	seq     uint64
	live    int
	idSpace int
	deltas  []delta.Poly // ID and Seq only
	removed int
	approx  []Pair
	exact   []Pair
}

func snapshotState(t *testing.T, ix *Index, pts []LatLng) mutationState {
	t.Helper()
	ep := ix.live.Load()
	st := mutationState{alive: slices.Clone(ep.alive), seq: ep.seq, live: ep.live, idSpace: len(ep.alive), removed: ep.removed}
	for _, p := range ep.ov.Polys() {
		st.deltas = append(st.deltas, delta.Poly{ID: p.ID, Seq: p.Seq})
	}
	st.approx, _ = joinPairs(t, ix, pts, Approximate, 2)
	st.exact, _ = joinPairs(t, ix, pts, Exact, 2)
	return st
}

func (a mutationState) equal(b mutationState) bool {
	return slices.Equal(a.alive, b.alive) && a.seq == b.seq && a.live == b.live && a.idSpace == b.idSpace &&
		slices.Equal(a.deltas, b.deltas) && a.removed == b.removed &&
		slices.Equal(a.approx, b.approx) && slices.Equal(a.exact, b.exact)
}

// TestReplayMatchesApplyReplicated drives one record batch through both
// entry points of stage and publish — Recover's log replay and a follower's
// ApplyReplicated — over copies of the same snapshot, and demands the same
// liveness column, sequence, overlay and join output from both. The batch
// mixes everything the loop distinguishes: fresh inserts, a base removal, a
// removal of a polygon inserted earlier in the batch, overlap records the
// base already covers, and a rotation marker.
func TestReplayMatchesApplyReplicated(t *testing.T) {
	const base = 6
	var polys []*Polygon
	var pts []LatLng
	for i := 0; i < base+4; i++ {
		if i < base {
			polys = append(polys, recordSquare(i))
		}
		c := 10 + 0.5*float64(i)
		pts = append(pts, LatLng{Lat: c, Lng: c}, LatLng{Lat: c + 0.1, Lng: c + 0.05}, LatLng{Lat: c + 0.25, Lng: c})
	}
	built, err := New(polys, WithPrecision(250))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snapA, snapB := filepath.Join(dir, "a.act"), filepath.Join(dir, "b.act")
	var snap bytes.Buffer
	if _, err := built.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{snapA, snapB} {
		if err := os.WriteFile(p, snap.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	records := []wal.Record{
		insertRecord(t, 1, 2),                  // overlap: the base holds id 2
		{Type: wal.TypeRemove, Seq: 2, ID: 40}, // overlap: never assigned
		insertRecord(t, 3, base),
		insertRecord(t, 4, base+1),
		{Type: wal.TypeCheckpoint}, // rotation marker / heartbeat
		{Type: wal.TypeRemove, Seq: 5, ID: 1},
		{Type: wal.TypeRemove, Seq: 6, ID: base}, // drops a delta polygon
		{Type: wal.TypeRemove, Seq: 7, ID: 1},    // overlap: already dead
		insertRecord(t, 8, base+2),
	}
	walPath := filepath.Join(dir, "a.wal")
	writeLog(t, walPath, records)

	recovered, err := Recover(snapA, walPath, WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	follower, err := OpenFollower(snapB, WithDeltaThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := follower.ApplyReplicated(context.Background(), records); err != nil {
		t.Fatal(err)
	}

	got, want := snapshotState(t, follower, pts), snapshotState(t, recovered, pts)
	if !got.equal(want) {
		t.Fatalf("follower and recovered index diverge:\nfollower:  %+v\nrecovered: %+v", got, want)
	}
	// And the state is the one the records describe, not merely a shared one.
	if want.seq != 8 || want.live != base+1 || want.idSpace != base+3 ||
		!slices.Equal(want.deltas, []delta.Poly{{ID: base, Seq: 3}, {ID: base + 1, Seq: 4}, {ID: base + 2, Seq: 8}}) ||
		want.alive[1] || want.alive[base] || want.removed != 2 || len(want.exact) == 0 {
		t.Fatalf("unexpected replayed state: %+v", want)
	}
}

// TestApplyRecordsFailureLeavesNoTrace: a batch whose third record is
// malformed must change nothing — through ApplyReplicated on a follower and
// through log replay onto a built index alike — so the same records, once
// repaired, still apply in full (a remove that had been half-applied would
// be skipped as already-dead and lost).
func TestApplyRecordsFailureLeavesNoTrace(t *testing.T) {
	const base = 4
	var polys []*Polygon
	var pts []LatLng
	for i := 0; i < base+2; i++ {
		if i < base {
			polys = append(polys, recordSquare(i))
		}
		c := 10 + 0.5*float64(i)
		pts = append(pts, LatLng{Lat: c, Lng: c}, LatLng{Lat: c + 0.25, Lng: c})
	}
	good := []wal.Record{
		insertRecord(t, 1, base),
		{Type: wal.TypeRemove, Seq: 2, ID: 0},
		insertRecord(t, 3, base+1),
	}
	for name, third := range map[string]wal.Record{
		"malformed-payload": {Type: wal.TypeInsert, Seq: 3, ID: base + 1, Data: []byte(`{"type":`)},
		"id-gap":            insertRecord(t, 3, base+5),
		"unknown-type":      {Type: 9, Seq: 3},
	} {
		bad := []wal.Record{good[0], good[1], third}
		dir := t.TempDir()

		built, err := New(polys, WithPrecision(250), WithDeltaThreshold(-1))
		if err != nil {
			t.Fatal(err)
		}
		snapPath := filepath.Join(dir, "f.act")
		f, err := os.Create(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := built.WriteTo(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		follower, err := OpenFollower(snapPath, WithDeltaThreshold(-1))
		if err != nil {
			t.Fatal(err)
		}
		defer follower.Close()

		// ReadFrame refuses unknown types, so a log file cannot carry one:
		// replay sees that case only through a direct call.
		replay := func(ix *Index, records []wal.Record) error {
			if name == "unknown-type" {
				ix.mu.Lock()
				defer ix.mu.Unlock()
				st, err := ix.stage(records, nil)
				ix.publish(st)
				return err
			}
			path := filepath.Join(dir, "replay.wal")
			os.Remove(path)
			writeLog(t, path, records)
			return ix.attachWAL(WALConfig{Path: path, Policy: SyncOff})
		}
		for _, ep := range []struct {
			entry string
			ix    *Index
			apply func(records []wal.Record) error
		}{
			{"ApplyReplicated", follower, func(r []wal.Record) error { return follower.ApplyReplicated(context.Background(), r) }},
			{"replay", built, func(r []wal.Record) error { return replay(built, r) }},
		} {
			before, epoch := snapshotState(t, ep.ix, pts), ep.ix.Status().Generation
			err := ep.apply(bad)
			if err == nil || !strings.Contains(err.Error(), "record 2") {
				t.Fatalf("%s/%s: error %v does not name record 2", name, ep.entry, err)
			}
			if after := snapshotState(t, ep.ix, pts); !after.equal(before) || ep.ix.Status().Generation != epoch || ep.ix.rs.Load().wal != nil {
				t.Fatalf("%s/%s: failed batch left a trace:\nbefore: %+v\nafter:  %+v", name, ep.entry, before, after)
			}
			if err := ep.apply(good); err != nil {
				t.Fatalf("%s/%s: repaired batch: %v", name, ep.entry, err)
			}
			after := snapshotState(t, ep.ix, pts)
			if after.seq != 3 || after.live != base+1 || after.alive[0] || after.removed != 1 || len(after.deltas) != 2 {
				t.Fatalf("%s/%s: repaired batch applied as %+v", name, ep.entry, after)
			}
		}
		if built.rs.Load().wal != nil {
			built.Close()
		}
	}
}

// TestLegacyFormatsRefused: index files of versions 1 to 12 (and a future
// version 15) and version-1 write-ahead logs are no longer read (geometry
// sections of versions 1 and 2: TestGeometryV1Compat). Every loader must say so —
// an "unsupported version" error, before interpreting another byte — and
// must leave the file as it found it.
func TestLegacyFormatsRefused(t *testing.T) {
	dir := t.TempDir()
	le := binary.LittleEndian

	// The v1/v2 index header: magic, version, grid kind, precision,
	// achieved precision, cells, polygon count (+ a geometry flag in v2),
	// then the payload — zeros here, long enough to outlast a flat header.
	indexFile := func(version uint32) []byte {
		b := append([]byte(indexMagic), make([]byte, 508)...)
		le.PutUint32(b[4:], version)
		le.PutUint64(b[12:], 0x4034000000000000) // precision 20.0
		le.PutUint64(b[36:], 3)                  // polygon count
		return b
	}
	// A v3/v4 file (dense nodes) and a v5/v6 file (run-compressed nodes)
	// have today's header layout, checksummed, over another arena: re-stamp
	// a dense-id and a sparse-id file of today. So does a future v15.
	seeds := fuzzSeedIndexes(t)
	flatFile := func(version uint32, current []byte) []byte {
		b := bytes.Clone(current)
		le.PutUint32(b[4:], version)
		le.PutUint64(b[flatHeaderCRCBytes:], crc64.Checksum(b[:flatHeaderCRCBytes], flatCRCTable))
		return b
	}
	for name, file := range map[string][]byte{
		"index-v1":        indexFile(1),
		"index-v2":        indexFile(2),
		"index-v2-short":  indexFile(2)[:44],
		"index-v3":        flatFile(3, seeds[0]),
		"index-v4":        flatFile(4, seeds[1]),
		"index-v5":        flatFile(5, seeds[0]),
		"index-v6":        flatFile(6, seeds[1]),
		"index-v15":       flatFile(15, seeds[0]),
		"index-v15-short": indexFile(15),
	} {
		if _, err := ReadIndex(bytes.NewReader(file)); err == nil || !strings.Contains(err.Error(), "unsupported index version") {
			t.Errorf("%s: ReadIndex error = %v, want unsupported index version", name, err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenIndex(path); err == nil || !strings.Contains(err.Error(), "unsupported index version") {
			t.Errorf("%s: OpenIndex error = %v, want unsupported index version", name, err)
		}
		if _, err := Recover(path, filepath.Join(dir, name+".wal")); err == nil {
			t.Errorf("%s: Recover accepted a legacy snapshot", name)
		}
	}

	// Versions 7 to 12 are today's layout over earlier trie encodings,
	// restamped from a dense-id and a sparse-id file as versions 3 to 6 are.
	// Each loader names the version and the way to upgrade it.
	for v := uint32(7); v <= 12; v++ {
		t.Run(fmt.Sprintf("index-v%d", v), func(t *testing.T) {
			checkRefusedEverywhere(t, flatFile(v, seeds[1-v%2]), retiredIndexError(v))
		})
	}

	// The v1 log header is 16 bytes (no epoch); one whole record follows.
	v1log := append([]byte("ACTW"), make([]byte, 12)...)
	le.PutUint32(v1log[4:], 1)
	le.PutUint64(v1log[8:], 7) // baseSeq
	v1log = append(v1log, wal.EncodeFrame(wal.Record{Type: wal.TypeRemove, Seq: 8, ID: 0})...)
	for name, file := range map[string][]byte{
		"wal-v1":       v1log,
		"wal-v1-empty": v1log[:16],
	} {
		if _, err := wal.ReadHeader(bytes.NewReader(file)); !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), "unsupported version 1") {
			t.Errorf("%s: ReadHeader error = %v, want unsupported version 1", name, err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := wal.Open(path, wal.Options{}); !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), "unsupported version 1") {
			t.Errorf("%s: Open error = %v, want unsupported version 1", name, err)
		}
		if _, err := New([]*Polygon{recordSquare(0)}, WithPrecision(250), WithWAL(WALConfig{Path: path})); err == nil {
			t.Errorf("%s: New attached a legacy log", name)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, file) {
			t.Errorf("%s: refused log was modified (%v)", name, err)
		}
	}
}

// retiredIndexError is what every loader says of an index file of version
// v, one of the retired versions 7 to 12.
func retiredIndexError(v uint32) string {
	return fmt.Sprintf("unsupported index version %d: load it with a release that reads index version 12 and write it back (WriteTo, or a checkpoint)", v)
}

// writtenIndex returns the file ix writes.
func writtenIndex(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restampHeader parses file's header, lets stamp change it, and writes it
// back over file's header with its checksum recomputed.
func restampHeader(t *testing.T, file []byte, stamp func(*flatHeader)) []byte {
	t.Helper()
	h, err := parseHeader(file)
	if err != nil {
		t.Fatal(err)
	}
	stamp(h)
	enc := h.encode()
	copy(file, enc[:])
	return file
}

// TestLegacyWithoutGeometryRefused: a file of versions 7 to 12 written
// without geometry once failed its trie rebuild for want of polygons; it is
// now refused by its version like any other, with the same upgrade hint —
// here a fresh approximate-only file, stamped version 11.
func TestLegacyWithoutGeometryRefused(t *testing.T) {
	ix, err := New(mustCensus40(t).Polygons, WithPrecision(1000), WithGeometryStore(false))
	if err != nil {
		t.Fatal(err)
	}
	file := restampHeader(t, writtenIndex(t, ix), func(h *flatHeader) { h.version = 11 })
	checkRefusedEverywhere(t, file, retiredIndexError(11))
}

// TestLegacyV1FacesRefused: a version 7 or 8 file may carry a version 1
// geometry section, which records no faces. Such a file is refused by its
// index version before its section is read, so a multi-face one fails as a
// one-face one does — here a fresh build over several cube faces with its
// section laid out as version 1, stamped version 7.
func TestLegacyV1FacesRefused(t *testing.T) {
	tri := func(lat, lng float64) *Polygon {
		return &Polygon{Outer: []LatLng{{Lat: lat, Lng: lng}, {Lat: lat, Lng: lng + 1}, {Lat: lat + 1, Lng: lng}}}
	}
	polys := []*Polygon{tri(10, 10), tri(10, 100), tri(70, 40), tri(-20, -100), tri(40.7, -74)}
	ix, err := New(polys, WithPrecision(20000), WithGrid(CubeFaceGrid))
	if err != nil {
		t.Fatal(err)
	}
	file := writtenIndex(t, ix)
	h, err := parseHeader(file)
	if err != nil {
		t.Fatal(err)
	}
	file = append(file[:h.geomOff:h.geomOff], sectionV1(ix.live.Load().store)...)
	file = restampHeader(t, file, func(h *flatHeader) { h.version, h.fileSize = 7, uint64(len(file)) })
	checkRefusedEverywhere(t, file, retiredIndexError(7))
}

// TestLegacyRebuildBounded: the precision a v7–v12 file's header names once
// decided how fine the trie rebuild's coverings were, so a forged one could
// ask a load for unbounded work. No such file is rebuilt any more: a
// census-40 file stamped version 11 with 10 cm instead of 1 000 m is refused
// by every loader, and ReadIndex reads no byte past its header to do so.
func TestLegacyRebuildBounded(t *testing.T) {
	ix, err := New(mustCensus40(t).Polygons, WithPrecision(1000))
	if err != nil {
		t.Fatal(err)
	}
	file := restampHeader(t, writtenIndex(t, ix), func(h *flatHeader) { h.version, h.precision = 11, 0.1 })
	checkRefusedEverywhere(t, file, retiredIndexError(11))
	r := bytes.NewReader(file)
	if _, err := ReadIndex(r); err == nil {
		t.Fatal("ReadIndex accepted the forged file")
	}
	if read := len(file) - r.Len(); read > flatHeaderSize {
		t.Errorf("ReadIndex read %d bytes of the %d-byte forged file before refusing it, want at most the %d-byte header", read, len(file), flatHeaderSize)
	}
}

// geometryFile returns a copy of the v13 file current with its geometry
// section restamped as version and its section checksum recomputed.
func geometryFile(t *testing.T, version uint32, current []byte) []byte {
	t.Helper()
	h, err := parseHeader(current)
	if err != nil || !h.hasGeom {
		t.Fatalf("seed file: %v, geometry %v", err, err == nil && h.hasGeom)
	}
	b := bytes.Clone(current)
	sec := b[h.geomOff:]
	binary.LittleEndian.PutUint32(sec[4:], version)
	binary.LittleEndian.PutUint64(sec[len(sec)-8:], crc64.Checksum(sec[:len(sec)-8], flatCRCTable))
	return b
}

// checkRefusedEverywhere checks that ReadIndex, OpenIndex, Recover and
// OpenFollower each refuse file with an error containing want, and leave it
// byte for byte as they found it.
func checkRefusedEverywhere(t *testing.T, file []byte, want string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "index.act")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, loader := range []struct {
		name string
		load func() (*Index, error)
	}{
		{"ReadIndex", func() (*Index, error) { return ReadIndex(bytes.NewReader(file)) }},
		{"OpenIndex", func() (*Index, error) { return OpenIndex(path) }},
		{"Recover", func() (*Index, error) { return Recover(path, filepath.Join(dir, "delta.wal")) }},
		{"OpenFollower", func() (*Index, error) { return OpenFollower(path) }},
	} {
		if ix, err := loader.load(); err == nil || !strings.Contains(err.Error(), want) {
			if err == nil {
				ix.Close()
			}
			t.Errorf("%s: error %v, want %q", loader.name, err, want)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, file) {
			t.Errorf("%s: the refused file was modified (%v)", loader.name, err)
		}
	}
}
