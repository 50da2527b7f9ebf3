package fault

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestScheduleDeterministic: exact-count and sticky rules fire on the
// right occurrences and nothing else.
func TestScheduleDeterministic(t *testing.T) {
	s := NewSchedule().
		FailNth(OpSync, 2, nil).
		FailFrom(OpWrite, 3, syscall.ENOSPC)
	if d := s.Next(OpSync); d.Err != nil {
		t.Fatalf("sync 1 failed: %v", d.Err)
	}
	if d := s.Next(OpSync); !errors.Is(d.Err, ErrInjected) {
		t.Fatalf("sync 2: got %v, want ErrInjected", d.Err)
	}
	if d := s.Next(OpSync); d.Err != nil {
		t.Fatalf("sync 3 failed: %v", d.Err)
	}
	for i := 1; i <= 2; i++ {
		if d := s.Next(OpWrite); d.Err != nil {
			t.Fatalf("write %d failed: %v", i, d.Err)
		}
	}
	for i := 3; i <= 5; i++ {
		if d := s.Next(OpWrite); !errors.Is(d.Err, syscall.ENOSPC) {
			t.Fatalf("write %d: got %v, want ENOSPC (sticky)", i, d.Err)
		}
	}
	if got := s.Count(OpWrite); got != 5 {
		t.Fatalf("write count %d, want 5", got)
	}
	if got := s.Injected(); got != 4 {
		t.Fatalf("injected %d, want 4", got)
	}
}

// TestSeededReplayable: the same seed yields the same fault sequence.
func TestSeededReplayable(t *testing.T) {
	run := func(seed uint64) []bool {
		s := Seeded(seed).Probabilistic(OpBody, 0.3, Decision{Err: ErrInjected, Keep: -1})
		var fired []bool
		for i := 0; i < 64; i++ {
			fired = append(fired, s.Next(OpBody).Err != nil)
		}
		return fired
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at op %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

// TestFSShortWrite: a short-write rule lands exactly Keep bytes before the
// error surfaces.
func TestFSShortWrite(t *testing.T) {
	s := NewSchedule().ShortWriteNth(OpWrite, 2, 3, nil)
	fs := FS{S: s}
	path := filepath.Join(t.TempDir(), "f")
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	n, err := f.Write([]byte("world"))
	if !errors.Is(err, ErrInjected) || n != 3 {
		t.Fatalf("write 2: n=%d err=%v, want 3 bytes and ErrInjected", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != "hellowor" {
		t.Fatalf("on disk: %q, want %q", blob, "hellowor")
	}
}

// TestFSRenameAndSync: rename and fsync rules fail the right calls.
func TestFSRenameAndSync(t *testing.T) {
	s := NewSchedule().FailNth(OpRename, 1, nil).FailNth(OpSync, 1, syscall.EIO)
	fs := FS{S: s}
	dir := t.TempDir()
	f, err := fs.OpenFile(filepath.Join(dir, "a"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync: %v, want EIO", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 2: %v", err)
	}
	if err := fs.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename: %v, want ErrInjected", err)
	}
	if err := fs.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); err != nil {
		t.Fatalf("rename 2: %v", err)
	}
}

// TestTransportCutAndFlip: the body decision cuts the stream after Keep
// bytes, and a flip corrupts exactly one byte without failing the read.
func TestTransportCutAndFlip(t *testing.T) {
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(payload)
	}))
	defer srv.Close()

	s := NewSchedule().
		Rule(OpBody, 1, Decision{Err: ErrInjected, Keep: 100}).
		FlipNth(OpBody, 2, 10)
	client := &http.Client{Transport: &Transport{S: s}}

	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("cut body read error: %v, want ErrInjected", err)
	}
	if len(got) != 100 {
		t.Fatalf("cut body delivered %d bytes, want 100", len(got))
	}

	resp, err = client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	got, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(got) != len(payload) {
		t.Fatalf("flip body: %d bytes, err %v", len(got), err)
	}
	diff := 0
	for i := range got {
		if got[i] != payload[i] {
			diff++
			if i != 10 {
				t.Fatalf("flipped byte at offset %d, want 10", i)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
}

// TestRoundTripFail: a roundtrip rule fails the whole request.
func TestRoundTripFail(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	s := NewSchedule().FailNth(OpRoundTrip, 1, nil)
	client := &http.Client{Transport: &Transport{S: s}}
	if _, err := client.Get(srv.URL); !errors.Is(err, ErrInjected) {
		t.Fatalf("request error: %v, want ErrInjected", err)
	}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("request 2: %v", err)
	}
	resp.Body.Close()
}

// TestReplacement walks the replace routine through success and each
// failure: the target is either the old file or the whole new one, and no
// temp file outlives a failure.
func TestReplacement(t *testing.T) {
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	check := func(t *testing.T, dir, target, want string) {
		t.Helper()
		got, err := os.ReadFile(target)
		if err != nil || string(got) != want {
			t.Fatalf("target holds %q (%v), want %q", got, err, want)
		}
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) != 1 {
			t.Fatalf("directory holds %d entries (%v), want only the target", len(ents), err)
		}
	}
	setup := func(t *testing.T) (string, string) {
		dir := t.TempDir()
		target := filepath.Join(dir, "snap")
		if err := os.WriteFile(target, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir, target
	}

	t.Run("commit", func(t *testing.T) {
		dir, target := setup(t)
		r, err := Stage(nil, target, write("new"))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Discard()
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
		r.Discard()
		check(t, dir, target, "new")
	})
	t.Run("write fails", func(t *testing.T) {
		dir, target := setup(t)
		boom := errors.New("boom")
		if _, err := Stage(OS{}, target, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
			t.Fatalf("Stage: %v, want boom", err)
		}
		check(t, dir, target, "old")
	})
	t.Run("data fsync fails", func(t *testing.T) {
		dir, target := setup(t)
		fs := FS{S: NewSchedule().FailNth(OpSync, 1, syscall.EIO)}
		if _, err := Stage(fs, target, write("new")); !errors.Is(err, syscall.EIO) {
			t.Fatalf("Stage: %v, want EIO", err)
		}
		check(t, dir, target, "old")
	})
	t.Run("rename fails", func(t *testing.T) {
		dir, target := setup(t)
		fs := FS{S: NewSchedule().FailNth(OpRename, 1, syscall.EIO)}
		r, err := Stage(fs, target, write("new"))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Commit(); !errors.Is(err, syscall.EIO) || errors.Is(err, ErrUnsynced) {
			t.Fatalf("Commit: %v, want EIO before the rename", err)
		}
		r.Discard()
		check(t, dir, target, "old")
	})
	t.Run("directory fsync fails", func(t *testing.T) {
		dir, target := setup(t)
		fs := FS{S: NewSchedule().FailNth(OpSync, 2, syscall.EIO)}
		r, err := Stage(fs, target, write("new"))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Commit(); !errors.Is(err, ErrUnsynced) || !errors.Is(err, syscall.EIO) {
			t.Fatalf("Commit: %v, want ErrUnsynced wrapping EIO", err)
		}
		r.Discard()
		check(t, dir, target, "new")
	})
	t.Run("keep", func(t *testing.T) {
		dir, target := setup(t)
		r, err := Stage(nil, target, write("new"))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
		f := r.Keep()
		r.Discard()
		if _, err := f.Write([]byte("er")); err != nil {
			t.Fatalf("kept handle: %v", err)
		}
		f.Close()
		check(t, dir, target, "newer")
	})
}
