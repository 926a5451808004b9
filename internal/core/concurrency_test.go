package core

import (
	"sync"
	"testing"

	"trackfm/internal/sim"
)

// TestConcurrentWindowAccesses drives the window paths from several
// goroutines at once under eviction pressure: each worker owns a disjoint
// stripe of words and alternates guarded stores and loads with a chunked
// cursor pass over its stripe, while the others' misses evict around it.
// A window used after its pin is released would read another object's
// bytes (or race with the evacuator's write-back under -race).
func TestConcurrentWindowAccesses(t *testing.T) {
	rt := newTestRuntime(t, 256, 1<<18, 8*256) // 8 slots for 256 objects
	const workers, words = 4, 1 << 10          // 4 stripes of 32 objects
	p := rt.MustMalloc(workers * words * 8)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := p.Add(uint64(w) * words * 8)
			rng := sim.NewRNG(uint64(w) + 1)
			want := make([]uint64, words)
			for round := 0; round < 3; round++ {
				for k := 0; k < 200; k++ {
					i := rng.Uint64() % words
					want[i] = rng.Uint64()
					rt.StoreU64(base.Add(i*8), want[i])
					if got := rt.LoadU64(base.Add(i * 8)); got != want[i] {
						t.Errorf("worker %d: guarded load of word %d = %d, want %d", w, i, got, want[i])
						return
					}
				}
				cur := rt.NewCursor(base, 8, round == 1)
				for i := uint64(0); i < words; i++ {
					if got := cur.LoadU64(i); got != want[i] {
						t.Errorf("worker %d: chunked load of word %d = %d, want %d", w, i, got, want[i])
						cur.Close()
						return
					}
					want[i] ^= uint64(round + 1)
					cur.StoreU64(i, want[i])
				}
				cur.Close()
			}
		}(w)
	}
	wg.Wait()
}
