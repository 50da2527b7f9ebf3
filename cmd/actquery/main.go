// Command actquery builds an ACT index from a GeoJSON polygon file and
// answers point queries from stdin, one "lat lng" pair per line:
//
//	actgen -dataset neighborhoods -o n.geojson
//	echo "40.7580 -73.9855" | actquery -polygons n.geojson -precision 4
//
// Output per point: the matching polygon ids split by hit class (true hits
// are certainly inside, candidates are within the precision bound ε), or
// the candidates resolved against real geometry with -exact.
//
// With -mutate f.geojson, the polygons of f are inserted into the live
// index after the build (exercising the delta layer instead of a combined
// rebuild); with -verbose, each matched id is tagged @delta when it is
// currently served from the delta layer rather than the base trie.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/actindex/act"
	"github.com/actindex/act/internal/geojson"
)

func main() {
	polyFile := flag.String("polygons", "", "GeoJSON file with the polygon set (required)")
	precision := flag.Float64("precision", 4, "precision bound ε in meters")
	exact := flag.Bool("exact", false, "refine candidates with exact geometry")
	gridFlag := flag.String("grid", "planar", "hierarchical grid: planar | cubeface")
	mutateFile := flag.String("mutate", "", "GeoJSON file inserted into the live index after the build (delta layer)")
	verbose := flag.Bool("verbose", false, "tag each matched id with @delta when served from the delta layer")
	flag.Parse()

	if *polyFile == "" {
		fmt.Fprintln(os.Stderr, "actquery: -polygons is required")
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*polyFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "actquery: %v\n", err)
		os.Exit(1)
	}
	polys, err := geojson.ReadPolygons(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "actquery: %v\n", err)
		os.Exit(1)
	}

	var gk act.GridKind
	switch *gridFlag {
	case "planar":
		gk = act.PlanarGrid
	case "cubeface":
		gk = act.CubeFaceGrid
	default:
		fmt.Fprintf(os.Stderr, "actquery: unknown grid %q\n", *gridFlag)
		os.Exit(2)
	}

	idx, err := act.New(polys, act.WithPrecision(*precision), act.WithGrid(gk))
	if err != nil {
		fmt.Fprintf(os.Stderr, "actquery: build: %v\n", err)
		os.Exit(1)
	}
	if *mutateFile != "" {
		mf, err := os.Open(*mutateFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "actquery: %v\n", err)
			os.Exit(1)
		}
		extra, err := geojson.ReadPolygons(mf)
		mf.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "actquery: %v\n", err)
			os.Exit(1)
		}
		for i, p := range extra {
			if _, err := idx.Insert(context.Background(), p); err != nil {
				fmt.Fprintf(os.Stderr, "actquery: insert %d: %v\n", i, err)
				os.Exit(1)
			}
		}
		st := idx.Status()
		fmt.Fprintf(os.Stderr, "actquery: inserted %d polygons into the delta layer (pending %d, threshold %d)\n",
			len(extra), st.DeltaPolygons+st.Tombstones, st.Threshold)
	}
	st := idx.Status()
	fmt.Fprintf(os.Stderr,
		"actquery: %d live polygons (%d in base), %d cells, %.1f MB, ε=%.1fm (achieved %.2fm); reading \"lat lng\" lines\n",
		st.Live, st.Build.NumPolygons, st.Build.IndexedCells, float64(st.Build.TotalBytes())/1e6,
		*precision, st.Build.AchievedPrecisionMeters)

	in := bufio.NewScanner(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	// fmtIDs renders a matched id list; with -verbose, ids currently
	// served from the delta layer are tagged @delta.
	fmtIDs := func(ids []uint32) string {
		var sb strings.Builder
		sb.WriteByte('[')
		for i, id := range ids {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", id)
			if *verbose && idx.IsDelta(id) {
				sb.WriteString("@delta")
			}
		}
		sb.WriteByte(']')
		return sb.String()
	}
	mode := act.Approximate
	if *exact {
		mode = act.Exact
	}
	var res act.Result // reused across lines
	lineNo := 0
	for in.Scan() {
		lineNo++
		fields := strings.Fields(in.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 2 {
			fmt.Fprintf(os.Stderr, "actquery: line %d: need \"lat lng\"\n", lineNo)
			continue
		}
		lat, err1 := strconv.ParseFloat(fields[0], 64)
		lng, err2 := strconv.ParseFloat(fields[1], 64)
		if err1 != nil || err2 != nil {
			fmt.Fprintf(os.Stderr, "actquery: line %d: bad coordinates\n", lineNo)
			continue
		}
		// act.New keeps the geometry store, so an Exact lookup cannot fail.
		if hit, _ := idx.Lookup(act.LatLng{Lat: lat, Lng: lng}, mode, &res); !hit {
			fmt.Fprintf(out, "%.6f %.6f -> no match\n", lat, lng)
			continue
		}
		fmt.Fprintf(out, "%.6f %.6f -> true=%s candidates=%s\n", lat, lng, fmtIDs(res.True), fmtIDs(res.Candidates))
	}
	// The answers for the lines before a failing one go out first; a
	// failed write is sticky, so this flush reports any of them.
	failed := false
	if err := out.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "actquery: stdout: %v\n", err)
		failed = true
	}
	if err := in.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "actquery: stdin: line %d: %v\n", lineNo+1, err)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
