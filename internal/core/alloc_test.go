package core

import (
	"testing"

	"trackfm/internal/aifm"
	"trackfm/internal/mem/bufpool"
	"trackfm/internal/sim"
)

// TestCursorLoadStoreAllocFree is the allocation gate for the chunked
// loop's element access: over resident objects, a LoadU64/StoreU64 pair —
// within the pinned chunk and across a chunk boundary — moves its bytes
// through the pinned object's window and must not allocate.
func TestCursorLoadStoreAllocFree(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rt := newTestRuntime(t, 4096, 1<<20, 1<<20)
	const n = 1 << 13 // 16 objects, all resident
	p := rt.MustMalloc(n * 8)
	cur := rt.NewCursor(p, 8, false)
	defer cur.Close()
	for i := uint64(0); i < n; i++ {
		cur.StoreU64(i, i)
	}
	i := uint64(0)
	if allocs := testing.AllocsPerRun(2*n, func() {
		cur.StoreU64(i, cur.LoadU64(i)+1)
		i = (i + 1) % n
	}); allocs != 0 {
		t.Fatalf("resident cursor load+store allocated %v times per run, want 0", allocs)
	}
}

// TestRuntimeLoadStoreAllocFree is the same gate for guarded accesses:
// a within-object Runtime.LoadU64/StoreU64 on a resident object runs the
// guard, then moves the word through the pool's window, allocation-free.
func TestRuntimeLoadStoreAllocFree(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rt := newTestRuntime(t, 4096, 1<<20, 1<<20)
	const n = 1 << 13
	p := rt.MustMalloc(n * 8)
	for i := uint64(0); i < n; i++ {
		rt.StoreU64(p.Add(i*8), i)
	}
	i := uint64(0)
	if allocs := testing.AllocsPerRun(2*n, func() {
		q := p.Add(i * 8)
		rt.StoreU64(q, rt.LoadU64(q)+1)
		i = (i + 1) % n
	}); allocs != 0 {
		t.Fatalf("resident guarded load+store allocated %v times per run, want 0", allocs)
	}
}

// TestWindowPathChargesMatchPoolPath pins the window fast paths to the
// cost model: a phantom arena has no windows, so it moves every byte
// through Pool.Read/Write; the same access sequence over a real arena —
// chunked loads and stores with and without prefetch, unaligned and
// straddling cursor and guarded accesses, under eviction pressure — must
// leave the simulated clock and every counter exactly where it leaves
// them.
func TestWindowPathChargesMatchPoolPath(t *testing.T) {
	run := func(backing aifm.Backing) (uint64, sim.Counters) {
		rt, err := NewRuntime(Config{
			Env: sim.NewEnv(), ObjectSize: 256, HeapSize: 1 << 16,
			LocalBudget: 1 << 11, Backing: backing, // 8 slots for 64 objects
		})
		if err != nil {
			t.Fatalf("NewRuntime: %v", err)
		}
		const size = 1 << 14
		p := rt.MustMalloc(size)
		rng := sim.NewRNG(3)
		var buf [12]byte
		for round := 0; round < 3; round++ {
			cur := rt.NewCursor(p, 8, round == 1)
			for i := uint64(0); i < size/8; i++ {
				if i%3 == 0 {
					cur.StoreU64(i, i)
				} else {
					cur.LoadU64(i)
				}
			}
			for k := 0; k < 200; k++ {
				cur.AccessAt(rng.Uint64()%(size-uint64(len(buf))), buf[:], k%2 == 0)
			}
			cur.Close()
			for k := 0; k < 500; k++ {
				q := p.Add(rng.Uint64() % (size - 8))
				if k%2 == 0 {
					rt.StoreU64(q, uint64(k))
				} else {
					rt.LoadU64(q)
				}
			}
		}
		return rt.Env().Clock.Cycles(), rt.Env().Counters.Snapshot()
	}
	realCycles, realCounters := run(aifm.BackingReal)
	phantomCycles, phantomCounters := run(aifm.BackingPhantom)
	if realCycles != phantomCycles {
		t.Fatalf("window path charged %d cycles, pool path %d", realCycles, phantomCycles)
	}
	if realCounters != phantomCounters {
		t.Fatalf("counters differ:\nwindow %v\npool   %v", realCounters.String(), phantomCounters.String())
	}
}
