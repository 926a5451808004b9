package core

import (
	"encoding/binary"
	"fmt"

	"trackfm/internal/aifm"
	"trackfm/internal/sim"
)

// guardObject is the compiler-injected guard of §3.3 / Figure 4 for the
// object holding the target address. It performs the OST lookup, takes the
// fast path when the safety bits allow, and otherwise calls into the
// runtime (slow path), which localizes the object — possibly with a remote
// fetch. Costs follow Table 1; the cached/uncached split is decided by the
// OST warm-line model.
// It returns with the object pinned; the caller unpins after the data
// access, closing the race window a concurrent evacuator could otherwise
// slip into between the residency check and the access.
func (r *Runtime) guardObject(id aifm.ObjectID, write bool) {
	warm := r.cache.touch(uint64(id))
	m := aifm.MetaAt(r.ost, id)
	costs := &r.env.Costs
	if r.noOST {
		// Ablation: without the contiguous object state table the guard
		// performs AIFM's two-reference lookup — find the object, then
		// chase its metadata pointer.
		if warm {
			r.env.Clock.Advance(costs.MetaIndirectCached)
		} else {
			r.env.Clock.Advance(costs.MetaIndirectUncached)
		}
	}
	if m.Safe() {
		sim.Inc(&r.env.Counters.FastPathGuards)
		switch {
		case write && warm:
			r.env.Clock.Advance(costs.FastGuardWriteCached)
		case write:
			r.env.Clock.Advance(costs.FastGuardWriteUncached)
		case warm:
			r.env.Clock.Advance(costs.FastGuardReadCached)
		default:
			r.env.Clock.Advance(costs.FastGuardReadUncached)
		}
		// Between the safety check and the access the evacuator cannot
		// delocalize the object (out-of-scope barrier, §3.3): the object
		// is localized and pinned in one critical section, and stays
		// pinned until the access completes.
		r.pool.LocalizePin(id, write)
		return
	}
	// Slow path: runtime call adhering to AIFM's DerefScope API. The
	// measured slow-guard constants (Table 1) already include the scope
	// enter/exit work, so no separate scope cost is charged here.
	slowStart := r.env.Clock.Cycles()
	sim.Inc(&r.env.Counters.SlowPathGuards)
	switch {
	case write && warm:
		r.env.Clock.Advance(costs.SlowGuardWriteCached)
	case write:
		r.env.Clock.Advance(costs.SlowGuardWriteUncached)
	case warm:
		r.env.Clock.Advance(costs.SlowGuardReadCached)
	default:
		r.env.Clock.Advance(costs.SlowGuardReadUncached)
	}
	r.pool.LocalizePin(id, write) // charges the remote fetch when absent
	r.lat.GuardSlow.Observe(r.env.Clock.Cycles() - slowStart)
	r.collectPoint()
}

// checkManaged panics on unmanaged pointers: by construction the compiler
// only routes custody-passing pointers here, so an unmanaged pointer is a
// transformation bug, the analogue of a general protection fault.
func checkManaged(p Ptr, op string) {
	if !p.Managed() {
		panic(fmt.Sprintf("core: %s through unmanaged pointer %#x", op, uint64(p)))
	}
}

// CustodyReject charges the cost of a custody check that failed (the
// pointer is not TrackFM-managed, so the original load/store runs
// unguarded). Callers — the IR interpreter, mainly — then perform the
// access against their own local memory.
func (r *Runtime) CustodyReject() {
	r.env.Clock.Advance(r.env.Costs.CustodyCheck)
	sim.Inc(&r.env.Counters.CustodyRejects)
}

// LoadU64 performs a guarded 8-byte load at p.
func (r *Runtime) LoadU64(p Ptr) uint64 {
	if id, w := r.guardWord(p, false, "LoadU64"); w != nil {
		v := binary.LittleEndian.Uint64(w)
		r.pool.Unpin(id)
		return v
	}
	var buf [8]byte
	r.access(p, buf[:], false, "LoadU64")
	return binary.LittleEndian.Uint64(buf[:])
}

// StoreU64 performs a guarded 8-byte store at p.
func (r *Runtime) StoreU64(p Ptr, v uint64) {
	if id, w := r.guardWord(p, true, "StoreU64"); w != nil {
		binary.LittleEndian.PutUint64(w, v)
		r.pool.Unpin(id)
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	r.access(p, buf[:], true, "StoreU64")
}

// guardWord is access for an 8-byte word that lies within one object of a
// windowed arena: it guards the object, charges the data access exactly as
// access does, and returns the object — still pinned, for the caller to
// unpin after the move — and the word's bytes in the pool's window, so
// the move needs no buffer. For a straddling word, a phantom arena or an
// address past the heap it charges nothing and returns nil, and the caller
// goes through access.
func (r *Runtime) guardWord(p Ptr, write bool, op string) (aifm.ObjectID, []byte) {
	checkManaged(p, op)
	off := p.HeapOffset()
	inObj := off & (uint64(r.objSize) - 1)
	if r.phantom || inObj+8 > uint64(r.objSize) || off+8 > r.heapSize {
		return 0, nil
	}
	id := aifm.ObjectID(off >> r.shift)
	r.guardObject(id, write)
	r.env.Clock.Advance(r.env.Costs.LocalLoadStore)
	return id, r.pool.Window(id)[inObj : inObj+8]
}

// LoadF64 performs a guarded 8-byte float load at p.
func (r *Runtime) LoadF64(p Ptr) float64 {
	return float64frombits(r.LoadU64(p))
}

// StoreF64 performs a guarded 8-byte float store at p.
func (r *Runtime) StoreF64(p Ptr, v float64) {
	r.StoreU64(p, float64bits(v))
}

// Load performs a guarded read of len(dst) bytes starting at p. Reads
// spanning multiple objects are guarded once per object, matching the
// per-access guards the compiler emits for the element loop a bulk copy
// lowers to.
func (r *Runtime) Load(p Ptr, dst []byte) {
	r.access(p, dst, false, "Load")
}

// Store performs a guarded write of src starting at p.
func (r *Runtime) Store(p Ptr, src []byte) {
	r.access(p, src, true, "Store")
}

// access splits [p, p+len(buf)) into object-bounded segments, guards each
// object, charges the data-access cost, and moves the bytes.
func (r *Runtime) access(p Ptr, buf []byte, write bool, op string) {
	checkManaged(p, op)
	objSize := uint64(r.objSize)
	off := p.HeapOffset()
	if off+uint64(len(buf)) > r.heapSize {
		panic(fmt.Sprintf("core: %s at %#x+%d beyond heap end", op, uint64(p), len(buf)))
	}
	done := uint64(0)
	total := uint64(len(buf))
	for done < total {
		id := aifm.ObjectID((off + done) >> r.shift)
		inObj := (off + done) & (objSize - 1)
		n := objSize - inObj
		if total-done < n {
			n = total - done
		}
		r.guardObject(id, write)
		// The target access itself: one load/store per 64B touched.
		lines := (n + 63) / 64
		r.env.Clock.Advance(lines * r.env.Costs.LocalLoadStore)
		if write {
			r.pool.Write(id, inObj, buf[done:done+n])
		} else {
			r.pool.Read(id, inObj, buf[done:done+n])
		}
		r.pool.Unpin(id)
		done += n
	}
}

// PrefetchFrom issues compiler-directed prefetches for the `objects`
// objects following the one containing p (exclusive). The loop-chunking
// pass plants these for pointers governed by induction variables (§3.4).
func (r *Runtime) PrefetchFrom(p Ptr, objects int) {
	if r.noPrefetch {
		return
	}
	checkManaged(p, "PrefetchFrom")
	id, _ := p.object(r.shift)
	for k := 1; k <= objects; k++ {
		r.pool.Prefetch(id + aifm.ObjectID(k))
	}
}
