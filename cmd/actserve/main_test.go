package main

import (
	"bytes"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the actserve binary: re-run
// with ACTSERVE_RUN_MAIN=1 it executes main with the arguments given.
func TestMain(m *testing.M) {
	if os.Getenv("ACTSERVE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// child is one running actserve process.
type child struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
}

// start runs the test binary as actserve on a free loopback port and waits
// until /healthz answers 200.
func start(t *testing.T, args ...string) *child {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	s := &child{url: "http://" + addr}
	s.cmd = exec.Command(os.Args[0], append(args, "-addr", addr, "-drain", "5s")...)
	s.cmd.Env = append(os.Environ(), "ACTSERVE_RUN_MAIN=1")
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.cmd.Process.Kill() }) // no-op once stopped
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s
			}
		}
		if time.Now().After(deadline) {
			s.cmd.Process.Kill()
			s.cmd.Wait()
			t.Fatalf("%v never answered /healthz: %v\nstderr: %s", args, err, s.stderr.String())
		}
	}
}

// stop sends SIGTERM and requires a clean, drained exit.
func (s *child) stop(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := s.cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v, want status 0\nstderr: %s", err, s.stderr.String())
	}
	if !strings.Contains(s.stderr.String(), "drained, exiting") {
		t.Fatalf("no \"drained, exiting\" line on stderr:\n%s", s.stderr.String())
	}
}

// TestServeAndDrain drives the one listen → signal → drain → close routine
// through both of its callers: a primary built from -polygons (with the
// -index/-wal pair that makes it a replication source) and a follower of
// it. Each must answer /healthz while up and, on SIGTERM, drain and exit 0.
func TestServeAndDrain(t *testing.T) {
	dir := t.TempDir()
	polygons := filepath.Join(dir, "zone.geojson")
	zone := `{"type":"FeatureCollection","features":[{"type":"Feature","properties":{},"geometry":{"type":"Polygon",` +
		`"coordinates":[[[-74.02,40.70],[-73.96,40.70],[-73.96,40.76],[-74.02,40.76],[-74.02,40.70]]]}}]}`
	if err := os.WriteFile(polygons, []byte(zone), 0o644); err != nil {
		t.Fatal(err)
	}
	primary := start(t, "-polygons", polygons, "-precision", "100",
		"-index", filepath.Join(dir, "p.act"), "-wal", filepath.Join(dir, "p.wal"))
	follower := start(t, "-replicate-from", primary.url, "-replica-dir", filepath.Join(dir, "replica"))

	for _, s := range []*child{primary, follower} {
		resp, err := http.Get(s.url + "/lookup?lat=40.73&lng=-73.99")
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(body.String(), `"matched":true`) {
			t.Fatalf("%s/lookup: status %d, body %s", s.url, resp.StatusCode, body.String())
		}
	}
	// The follower first: a primary keeps its stream connections open for
	// as long as the drain allows.
	follower.stop(t)
	primary.stop(t)
	if _, err := os.Stat(filepath.Join(dir, "p.act")); err != nil {
		t.Fatalf("primary left no checkpoint snapshot: %v", err)
	}
}
