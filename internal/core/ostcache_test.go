package core

import (
	"testing"

	"trackfm/internal/sim"
)

func TestOSTCacheLineSharing(t *testing.T) {
	c := newOSTCache(4)
	if c.touch(0) {
		t.Fatalf("first touch reported warm")
	}
	// Objects 0..7 share one 64-byte line (8 entries x 8 bytes).
	for id := uint64(1); id < objectsPerLine; id++ {
		if !c.touch(id) {
			t.Fatalf("object %d should share line 0", id)
		}
	}
	if c.touch(objectsPerLine) {
		t.Fatalf("object %d lives on a new line", objectsPerLine)
	}
}

func TestOSTCacheCapacityEviction(t *testing.T) {
	c := newOSTCache(2)
	c.touch(0 * objectsPerLine) // line 0
	c.touch(1 * objectsPerLine) // line 1
	c.touch(2 * objectsPerLine) // line 2: evicts line 0 (FIFO)
	if c.touch(0) {
		t.Fatalf("line 0 survived capacity eviction")
	}
	// Touching line 0 again evicted line 1.
	if c.touch(1 * objectsPerLine) {
		t.Fatalf("line 1 survived after ring wrapped")
	}
}

func TestOSTCacheFlush(t *testing.T) {
	c := newOSTCache(8)
	c.touch(0)
	c.flush()
	if c.touch(0) {
		t.Fatalf("flush left line warm")
	}
}

func TestOSTCacheDefaultCapacity(t *testing.T) {
	c := newOSTCache(0)
	if c.capacity != 1<<18 {
		t.Fatalf("default capacity = %d", c.capacity)
	}
}

func TestUncachedGuardsReappearUnderOSTPressure(t *testing.T) {
	// A working set whose OST lines exceed the modeled cache must keep
	// paying uncached guard costs even in steady state.
	rt, err := NewRuntime(Config{
		Env:           newTestRuntime(t, 64, 1<<16, 1<<16).Env(), // fresh env holder
		ObjectSize:    64,
		HeapSize:      1 << 16,
		LocalBudget:   1 << 16,
		OSTCacheLines: 4, // covers 32 objects; heap has 1024
	})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	env := rt.Env()
	p := rt.MustMalloc(1 << 15) // 512 objects
	for i := uint64(0); i < 512; i++ {
		rt.StoreU64(p.Add(i*64), i)
	}
	env.Clock.Reset()
	// Second sweep: everything resident, but OST lines keep missing.
	for i := uint64(0); i < 512; i++ {
		rt.LoadU64(p.Add(i * 64))
	}
	perAccess := env.Clock.Cycles() / 512
	warmCost := env.Costs.FastGuardReadCached + env.Costs.LocalLoadStore
	if perAccess <= warmCost {
		t.Fatalf("per-access %d cycles; OST pressure should exceed warm cost %d",
			perAccess, warmCost)
	}
}

// refOSTCache is the warm-line model as first written: a map and a ring
// both sized for capacity up front. TestOSTCacheMatchesReference pins the
// lazily grown ostCache to its verdicts.
type refOSTCache struct {
	resident map[uint64]struct{}
	order    []uint64
	head     int
	capacity int
}

func newRefOSTCache(capacity int) *refOSTCache {
	return &refOSTCache{
		resident: make(map[uint64]struct{}, capacity),
		order:    make([]uint64, capacity),
		capacity: capacity,
	}
}

func (c *refOSTCache) touch(id uint64) bool {
	line := id / objectsPerLine
	if _, ok := c.resident[line]; ok {
		return true
	}
	if len(c.resident) >= c.capacity {
		delete(c.resident, c.order[c.head])
		c.order[c.head] = line
		c.head = (c.head + 1) % c.capacity
	} else {
		c.order[(c.head+len(c.resident))%c.capacity] = line
	}
	c.resident[line] = struct{}{}
	return false
}

func (c *refOSTCache) flush() {
	c.resident = make(map[uint64]struct{}, c.capacity)
	c.head = 0
}

// TestOSTCacheMatchesReference replays a mixed trace — sequential sweeps,
// a hot set, random touches — through the lazily grown model and the
// pre-sized reference, with capacities small enough that the FIFO wraps
// many times and flushes land both before and after the ring is full.
// Every verdict must agree.
func TestOSTCacheMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 16, 64} {
		c, ref := newOSTCache(capacity), newRefOSTCache(capacity)
		rng := sim.NewRNG(uint64(capacity))
		for step := 0; step < 20000; step++ {
			var id uint64
			switch r := rng.Uint64() % 10; {
			case r < 4:
				id = uint64(step) // sequential sweep: a new line every 8
			case r < 7:
				id = rng.Uint64() % (4 * objectsPerLine) // hot set
			default:
				id = rng.Uint64() % (uint64(capacity) * 3 * objectsPerLine)
			}
			if got, want := c.touch(id), ref.touch(id); got != want {
				t.Fatalf("capacity %d step %d: touch(%d) = %v, reference %v", capacity, step, id, got, want)
			}
			if rng.Uint64()%(uint64(capacity)*5+1) == 0 {
				c.flush()
				ref.flush()
			}
		}
		if len(c.order) > capacity {
			t.Fatalf("capacity %d: ring grew to %d", capacity, len(c.order))
		}
	}
}

// TestOSTCacheGrowsOnDemand checks the default model allocates for the
// lines touched, not for its capacity.
func TestOSTCacheGrowsOnDemand(t *testing.T) {
	c := newOSTCache(0)
	for id := uint64(0); id < 100*objectsPerLine; id++ {
		c.touch(id)
	}
	if len(c.order) != 100 || cap(c.order) >= c.capacity/64 {
		t.Fatalf("ring len %d cap %d after touching 100 lines", len(c.order), cap(c.order))
	}
}
