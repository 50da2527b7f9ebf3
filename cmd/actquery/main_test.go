package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the actquery binary: re-run
// with ACTQUERY_RUN_MAIN=1 it executes main with the arguments given.
func TestMain(m *testing.M) {
	if os.Getenv("ACTQUERY_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOverlongLineKeepsEarlierAnswers: a stdin line beyond bufio.Scanner's
// 64 KiB limit ends the run with an error naming the line, but the answers
// for the lines before it — still sitting in the output buffer at that
// point — must reach stdout.
func TestOverlongLineKeepsEarlierAnswers(t *testing.T) {
	polygons := filepath.Join(t.TempDir(), "zone.geojson")
	zone := `{"type":"FeatureCollection","features":[{"type":"Feature","properties":{},"geometry":{"type":"Polygon",` +
		`"coordinates":[[[-74.02,40.70],[-73.96,40.70],[-73.96,40.76],[-74.02,40.76],[-74.02,40.70]]]}}]}`
	if err := os.WriteFile(polygons, []byte(zone), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-polygons", polygons, "-precision", "100")
	cmd.Env = append(os.Environ(), "ACTQUERY_RUN_MAIN=1")
	cmd.Stdin = strings.NewReader("40.73 -73.99\n10 10\n" + strings.Repeat("7", 70_000) + " 1\n40.73 -73.99\n")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("exit = %v, want status 1\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "stdin: line 3:") {
		t.Errorf("stderr does not name line 3:\n%s", stderr.String())
	}
	want := "40.730000 -73.990000 -> true=[0] candidates=[]\n10.000000 10.000000 -> no match\n"
	if stdout.String() != want {
		t.Errorf("stdout = %q, want %q", stdout.String(), want)
	}
}
