package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/actindex/act/internal/geom"
)

func randRect(rng *rand.Rand, span, maxSize float64) geom.Rect {
	x, y := rng.Float64()*span, rng.Float64()*span
	w, h := rng.Float64()*maxSize, rng.Float64()*maxSize
	return geom.Rect{Min: geom.Point{X: x, Y: y}, Max: geom.Point{X: x + w, Y: y + h}}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(3); err == nil {
		t.Error("maxEntries < 4 should be rejected")
	}
	tr, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("fresh tree: len=%d height=%d", tr.Len(), tr.Height())
	}
}

func TestInsertAndQuerySmall(t *testing.T) {
	tr, _ := New(8)
	rects := []geom.Rect{
		{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 1, Y: 1}},
		{Min: geom.Point{X: 2, Y: 2}, Max: geom.Point{X: 3, Y: 3}},
		{Min: geom.Point{X: 0.5, Y: 0.5}, Max: geom.Point{X: 2.5, Y: 2.5}},
	}
	for i, r := range rects {
		tr.Insert(r, uint32(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := tr.QueryPoint(geom.Point{X: 0.7, Y: 0.7}, nil)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("QueryPoint = %v, want [0 2]", got)
	}
	if got := tr.QueryPoint(geom.Point{X: 10, Y: 10}, nil); len(got) != 0 {
		t.Errorf("miss returned %v", got)
	}
}

// TestAgainstLinearScan is the core correctness property under heavy
// splitting and forced reinsertion.
func TestAgainstLinearScan(t *testing.T) {
	for _, maxEntries := range []int{4, 8, 16} {
		rng := rand.New(rand.NewSource(int64(maxEntries)))
		tr, _ := New(maxEntries)
		var items []geom.Rect
		for i := 0; i < 3000; i++ {
			r := randRect(rng, 100, 3)
			items = append(items, r)
			tr.Insert(r, uint32(i))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("maxEntries %d: %v", maxEntries, err)
		}
		if tr.Len() != len(items) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(items))
		}
		var buf []uint32
		for q := 0; q < 2000; q++ {
			p := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			buf = tr.QueryPoint(p, buf[:0])
			var want []uint32
			for i, r := range items {
				if r.Contains(p) {
					want = append(want, uint32(i))
				}
			}
			sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
			if len(buf) != len(want) {
				t.Fatalf("maxEntries %d point %v: got %d hits, want %d", maxEntries, p, len(buf), len(want))
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("maxEntries %d point %v: got %v, want %v", maxEntries, p, buf, want)
				}
			}
		}
	}
}

func TestQueryRectAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr, _ := New(8)
	var items []geom.Rect
	for i := 0; i < 1000; i++ {
		r := randRect(rng, 50, 2)
		items = append(items, r)
		tr.Insert(r, uint32(i))
	}
	var buf []uint32
	for q := 0; q < 500; q++ {
		probe := randRect(rng, 50, 5)
		buf = tr.QueryRect(probe, buf[:0])
		var want int
		for _, r := range items {
			if r.Intersects(probe) {
				want++
			}
		}
		if len(buf) != want {
			t.Fatalf("QueryRect(%v): got %d, want %d", probe, len(buf), want)
		}
	}
}

func TestDuplicateRects(t *testing.T) {
	tr, _ := New(8)
	r := geom.Rect{Min: geom.Point{X: 1, Y: 1}, Max: geom.Point{X: 2, Y: 2}}
	for i := 0; i < 100; i++ {
		tr.Insert(r, uint32(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := tr.QueryPoint(geom.Point{X: 1.5, Y: 1.5}, nil)
	if len(got) != 100 {
		t.Errorf("duplicate rect query returned %d, want 100", len(got))
	}
}

func TestDegenerateRects(t *testing.T) {
	tr, _ := New(8)
	// Zero-area rects (points and segments) must be indexable.
	for i := 0; i < 200; i++ {
		x := float64(i)
		tr.Insert(geom.Rect{Min: geom.Point{X: x, Y: 0}, Max: geom.Point{X: x, Y: 0}}, uint32(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := tr.QueryPoint(geom.Point{X: 50, Y: 0}, nil)
	if len(got) != 1 || got[0] != 50 {
		t.Errorf("point-rect query = %v", got)
	}
}

func TestHeightGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr, _ := New(4)
	for i := 0; i < 500; i++ {
		tr.Insert(randRect(rng, 10, 1), uint32(i))
	}
	if tr.Height() < 3 {
		t.Errorf("500 items in a 4-way tree should be at least 3 levels, got %d", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQueryPoint(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	tr, _ := New(DefaultMaxEntries)
	for i := 0; i < 40000; i++ {
		tr.Insert(randRect(rng, 1000, 1), uint32(i))
	}
	pts := make([]geom.Point, 1024)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	var buf []uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.QueryPoint(pts[i%len(pts)], buf[:0])
	}
}
