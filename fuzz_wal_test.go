package act

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/actindex/act/internal/geojson"
	"github.com/actindex/act/internal/wal"
)

// buildSeedWAL constructs a well-formed log through the real append path:
// an insert of a pool polygon (as the replay-ready GeoJSON record) and a
// remove, so the fuzzer starts from bytes that exercise the happy path.
func buildSeedWAL(f *testing.F, torn int) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.wal")
	l, _, err := wal.Open(path, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		f.Fatal(err)
	}
	var gj bytes.Buffer
	if err := geojson.WritePolygons(&gj, []*Polygon{fuzzPool()[2]}); err != nil {
		f.Fatal(err)
	}
	recs := []wal.Record{
		{Type: wal.TypeInsert, Seq: 1, ID: 2, Data: gj.Bytes()},
		{Type: wal.TypeRemove, Seq: 2, ID: 0},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	if torn > 0 && torn < len(blob) {
		blob = blob[:len(blob)-torn]
	}
	return blob
}

// FuzzWALReplay feeds arbitrary bytes to the WAL recovery path as the log
// file contents behind New + WithWAL: recovery must never panic, a log the
// replay accepts must yield a servable index, and — because recovery
// truncates any torn tail in place — a second open of the same file must
// reproduce exactly the same polygon set (replay is deterministic).
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ACTW")) // short header
	f.Add(buildSeedWAL(f, 0))
	f.Add(buildSeedWAL(f, 1))  // torn final record
	f.Add(buildSeedWAL(f, 15)) // torn mid-record
	hdr := make([]byte, 16)
	copy(hdr, "ACTW")
	hdr[4] = 1
	f.Add(hdr)                                  // bare valid header
	f.Add(append(bytes.Clone(hdr), 0xff, 0xff)) // header + garbage tail

	pool := fuzzPool()
	probes := fuzzProbes()

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<15 {
			data = data[:1<<15] // bound per-input work
		}
		walPath := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(walPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() (*Index, error) {
			return New(pool[:2],
				WithPrecision(2000),
				WithFanout(16),
				WithDeltaThreshold(-1),
				WithWAL(WALConfig{Path: walPath, Policy: SyncOff}))
		}
		idx, err := open()
		if err != nil {
			return // rejected cleanly: corrupt header, gap, bad GeoJSON, ...
		}
		var res Result
		for _, ll := range probes {
			mustLookup(t, idx, ll, Approximate, &res)
		}
		n := idx.Status().Live
		recovered := idx.Status().WAL.RecoveredRecords
		if err := idx.Close(); err != nil {
			t.Fatalf("Close after replay: %v", err)
		}

		idx2, err := open()
		if err != nil {
			t.Fatalf("log replayed once but failed on reopen: %v", err)
		}
		if idx2.Status().Live != n || idx2.Status().WAL.RecoveredRecords != recovered {
			t.Fatalf("replay not deterministic: %d polygons / %d records, then %d / %d",
				n, recovered, idx2.Status().Live, idx2.Status().WAL.RecoveredRecords)
		}
		idx2.Close()
	})
}
