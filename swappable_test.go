package act

import (
	"sync"
	"testing"

	"github.com/actindex/act/internal/data"
)

func swapTestIndexes(t *testing.T) (*Index, *Index) {
	t.Helper()
	build := func(seed int64) *Index {
		set, err := data.GeneratePolygons(data.PolygonConfig{
			Name: "swap", NumRegions: 6, Lattice: 64, Seed: seed, BoundaryJitter: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := New(set.Polygons, WithPrecision(20))
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	return build(401), build(402)
}

func TestSwappableGenerations(t *testing.T) {
	a, b := swapTestIndexes(t)
	s := NewSwappable(a)
	if s.Load() != a || s.Generation() != 1 {
		t.Fatalf("initial state: idx=%p gen=%d", s.Load(), s.Generation())
	}
	if old := s.Swap(b); old != a {
		t.Errorf("Swap returned %p, want the previous index %p", old, a)
	}
	if s.Load() != b || s.Generation() != 2 {
		t.Errorf("after swap: idx=%p gen=%d", s.Load(), s.Generation())
	}
	if old := s.Swap(a); old != b || s.Generation() != 3 {
		t.Errorf("second swap: old=%p gen=%d", old, s.Generation())
	}
	if idx, gen := s.LoadGeneration(); idx != a || gen != 3 {
		t.Errorf("LoadGeneration = (%p, %d), want (%p, 3)", idx, gen, a)
	}
}

// TestSwappableConcurrent hammers Load (with real lookups on the loaded
// index) from many goroutines while another keeps swapping. Run with -race:
// the point is that readers always observe a complete index and a
// generation that never goes backwards.
func TestSwappableConcurrent(t *testing.T) {
	a, b := swapTestIndexes(t)
	s := NewSwappable(a)
	pts, err := data.GeneratePoints(data.PointConfig{N: 64, Seed: 403})
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res Result
			var lastGen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				idx, gen := s.LoadGeneration()
				if gen < lastGen {
					t.Errorf("generation went backwards: %d after %d", gen, lastGen)
					return
				}
				lastGen = gen
				if idx == nil {
					t.Error("Load returned nil")
					return
				}
				// The pair is atomic: the index at an odd generation is
				// always a, at an even generation always b.
				if (gen%2 == 1) != (idx == a) {
					t.Errorf("generation %d paired with wrong index", gen)
					return
				}
				for _, ll := range pts {
					idx.Lookup(ll, Approximate, &res)
				}
			}
		}()
	}

	cur, next := a, b
	for i := 0; i < 500; i++ {
		if old := s.Swap(next); old != cur {
			t.Errorf("swap %d returned %p, want %p", i, old, cur)
			break
		}
		cur, next = next, cur
	}
	close(stop)
	wg.Wait()
	if want := uint64(501); s.Generation() != want {
		t.Errorf("final generation = %d, want %d", s.Generation(), want)
	}
}
