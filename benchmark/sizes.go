package main

import "time"

// sizes fixes how much work each phase of a run does.
type sizes struct {
	setupReps    int
	samplePoints int // oracle-checked sample; also the pool of request points
	bulkPoints   int // points per bulk-join slice
	bulkSlices   int // timed slices per join mode, after one warm-up slice
	serveSlices  int // timed slices per served phase, after one warm-up slice
	// A served slice is a fixed number of requests rather than a fixed
	// time, so that attempts and the server's work repeat exactly.
	lookupsPerSlice int
	joinsPerSlice   int
	joinBody        int // points per POST /join body
	mutations       int // steps of the timed mutation schedule
	// After the schedule the run lands the server in a state that repeats
	// (see land): at most landMax single inserts until a compaction is
	// seen, then tail more, which the reads and the restarts then meet.
	landMax      int
	tail         int
	restarts     int
	thinkTime    time.Duration // the churn reader's pause between requests
	openLoopRate int           // requests per second of the open-loop probe
	openLoop     time.Duration
	layerPoints  int // points pushed through the single-threaded ladder
	layerReps    int
	// The fixed sizes the per-layer metrics are named after, which only the
	// smoke test shrinks: log tails replayed, overlay sizes inserts are
	// timed at.
	replayRecords [2]int
	insertAt      [3]int
}

// referenceSeconds is the run length the full-scale sizes are cut for. On
// the reference host the rows take 15 to 39 s (serve_churn, whose schedule
// and restarts do not scale), 22 s on average.
const referenceSeconds = 30

// sizesFor scales a run to the requested length. Only the number of slices
// follows it, and never below 7; a slice, the mutation schedule and the
// restarts keep their length at every scale. A traced run spends its time
// on the ladder and feeds the per-layer table only, so it takes 3 slices of
// everything — of the same length.
func sizesFor(seconds float64, traced bool) sizes {
	slices := max(7, int(9*seconds/referenceSeconds+0.5))
	sz := sizes{
		setupReps:       5,
		samplePoints:    200_000,
		bulkPoints:      4_000_000,
		bulkSlices:      slices,
		serveSlices:     slices,
		lookupsPerSlice: 6000,
		joinsPerSlice:   600,
		joinBody:        256,
		mutations:       1200,
		landMax:         256,
		tail:            64,
		restarts:        5,
		thinkTime:       2 * time.Millisecond,
		openLoopRate:    1000,
		openLoop:        3 * time.Second,
		layerPoints:     500_000,
		layerReps:       7,
		replayRecords:   [2]int{256, 1024},
		insertAt:        [3]int{0, 64, 120},
	}
	if traced {
		sz.setupReps, sz.bulkSlices, sz.serveSlices, sz.restarts = 1, 3, 3, 3
	}
	return sz
}

// toySizes is the scale of the smoke test: seconds for all four workloads
// together, untraced and traced.
func toySizes() sizes {
	return sizes{
		setupReps:       1,
		samplePoints:    5000,
		bulkPoints:      20_000,
		bulkSlices:      3,
		serveSlices:     3,
		lookupsPerSlice: 100,
		joinsPerSlice:   10,
		joinBody:        256,
		mutations:       40,
		landMax:         24,
		tail:            8,
		restarts:        1,
		thinkTime:       2 * time.Millisecond,
		openLoopRate:    1000,
		openLoop:        100 * time.Millisecond,
		layerPoints:     20_000,
		layerReps:       3,
		replayRecords:   [2]int{32, 128},
		insertAt:        [3]int{0, 8, 15},
	}
}
