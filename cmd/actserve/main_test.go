package main

import (
	"bytes"
	"encoding/json"
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
// The primary is stopped first, with the follower's record stream open: the
// drain ends the stream instead of waiting out -drain for the follower to
// hang up.
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
	for deadline := time.Now().Add(10 * time.Second); !streaming(t, follower); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the follower never opened its record stream")
		}
	}
	start := time.Now()
	primary.stop(t)
	// Half the -drain the children run with; a -race binary adds its one
	// second exit sleep to the few milliseconds the drain takes.
	took := time.Since(start)
	if took > 2500*time.Millisecond {
		t.Fatalf("the primary took %v to drain with a follower connected, want well inside -drain 5s", took)
	}
	t.Logf("the primary drained in %v with its follower connected", took)
	follower.stop(t)
	if _, err := os.Stat(filepath.Join(dir, "p.act")); err != nil {
		t.Fatalf("primary left no checkpoint snapshot: %v", err)
	}
}

// streaming reports whether the follower's /stats shows its record stream
// open.
func streaming(t *testing.T, follower *child) bool {
	t.Helper()
	resp, err := http.Get(follower.url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Replication struct {
			Connected bool `json:"connected"`
		} `json:"replication"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats.Replication.Connected
}
