package core

import (
	"encoding/binary"

	"trackfm/internal/aifm"
	"trackfm/internal/sim"
)

// Cursor is the runtime half of the loop-chunking transformation (§3.4,
// Figure 5). The compiler rewrites a guarded loop
//
//	for i := 0; i < N; i++ { sum += GUARD(a[i]) }
//
// into
//
//	cur := rt.NewCursor(a, elemSize, prefetch)   // tfm_init + tfm_rw
//	for i := 0; i < N; i++ {
//	    sum += cur.LoadU64(i)   // boundary check; locality guard on crossing
//	}
//	cur.Close()
//
// Within an object the per-access cost drops from a 14-instruction
// fast-path guard to a 3-instruction boundary check; crossing an object
// boundary pays the locality-invariant guard, which pins the new object in
// local memory for the duration of the chunk (so the evacuator cannot
// delocalize mid-chunk) and optionally prefetches the objects ahead.
//
// While an object is pinned the cursor keeps its arena window — the
// runtime analogue of the paper's chunk pointer — so an access inside the
// chunk is a bounds check and a direct load or store, with no call into
// the pool. A phantom arena has no window; its accesses go through the
// pool as before.
type Cursor struct {
	rt       *Runtime
	base     Ptr
	elemSize uint64
	write    bool

	obj    aifm.ObjectID
	pinned bool
	win    []byte // arena bytes of the pinned object; nil if none or phantom

	scratch [8]byte // LoadU64/StoreU64 bounce buffer off the window path

	prefetch bool
	closed   bool
}

// NewCursor performs the tfm_init runtime call for a chunked loop over
// elements of elemSize bytes starting at base. prefetch enables
// compiler-directed stride prefetch at boundary crossings. The caller must
// Close the cursor when the loop exits so the pinned chunk is released.
func (r *Runtime) NewCursor(base Ptr, elemSize int, prefetch bool) *Cursor {
	checkManaged(base, "NewCursor")
	r.env.Clock.Advance(r.env.Costs.ChunkInit)
	sim.Inc(&r.env.Counters.ChunkInits)
	return &Cursor{
		rt:       r,
		base:     base,
		elemSize: uint64(elemSize),
		prefetch: prefetch && !r.noPrefetch,
	}
}

// ensure runs the per-iteration boundary check and, when the access at
// heap offset off crosses into a new object, the locality-invariant guard.
func (c *Cursor) ensure(off uint64, write bool) aifm.ObjectID {
	r := c.rt
	r.env.Clock.Advance(r.env.Costs.BoundaryCheck)
	sim.Inc(&r.env.Counters.BoundaryChecks)
	id := aifm.ObjectID(off >> r.shift)
	if c.pinned && id == c.obj {
		if write && !aifm.MetaAt(r.ost, id).Dirty() {
			r.pool.Localize(id, true) // set the dirty bit once; still pinned
		}
		return id
	}
	// Object boundary crossed: locality-invariant guard. Localize and pin
	// are one critical section so a concurrent evacuator cannot interleave.
	if c.pinned {
		c.win = nil
		r.pool.Unpin(c.obj)
	}
	r.env.Clock.Advance(r.env.Costs.LocalityInvariantPin)
	sim.Inc(&r.env.Counters.LocalityGuards)
	r.pool.LocalizePin(id, write)
	c.obj, c.pinned = id, true
	c.win = r.pool.Window(id)
	if c.prefetch {
		for k := 1; k <= r.prefetchDepth; k++ {
			r.pool.Prefetch(id + aifm.ObjectID(k))
		}
	}
	return id
}

// Access moves len(buf) bytes between buf and element i of the chunked
// array (byte offset i*elemSize from the cursor base).
func (c *Cursor) Access(i uint64, buf []byte, write bool) {
	c.AccessAt(i*c.elemSize, buf, write)
}

// AccessAt moves len(buf) bytes at byte offset byteOff from the cursor
// base — the form the compiler emits for records accessed at intra-element
// offsets (e.g. struct fields within a strided stream). Accesses that
// straddle an object boundary fall back to a regular guarded access; the
// transformation only elides guards for accesses it can prove stay within
// the pinned chunk.
func (c *Cursor) AccessAt(byteOff uint64, buf []byte, write bool) {
	if w := c.chunk(byteOff, len(buf), write); w != nil {
		if write {
			copy(w, buf)
		} else {
			copy(buf, w)
		}
		return
	}
	r := c.rt
	off := c.base.HeapOffset() + byteOff
	if off+uint64(len(buf)) > ((off>>r.shift)+1)<<r.shift {
		r.access(c.base.Add(byteOff), buf, write, "Cursor.Access")
		return
	}
	id := c.ensure(off, write)
	r.env.Clock.Advance(r.env.Costs.LocalLoadStore)
	inObj := off & (uint64(r.objSize) - 1)
	switch {
	case c.win != nil && write:
		copy(c.win[inObj:], buf)
	case c.win != nil:
		copy(buf, c.win[inObj:])
	case write:
		r.pool.Write(id, inObj, buf)
	default:
		r.pool.Read(id, inObj, buf)
	}
}

// chunk is the in-chunk fast path: when the n-byte access at byteOff lies
// in the pinned object, which has a window (and is already dirty, for a
// write), it charges the boundary check and the access in one step and
// returns the access's window bytes. Otherwise it returns nil having
// charged nothing, and the caller takes the general path.
func (c *Cursor) chunk(byteOff uint64, n int, write bool) []byte {
	if c.closed {
		panic("core: access through closed Cursor")
	}
	r := c.rt
	off := c.base.HeapOffset() + byteOff
	inObj := off & (uint64(r.objSize) - 1)
	if c.win == nil || aifm.ObjectID(off>>r.shift) != c.obj || inObj+uint64(n) > uint64(r.objSize) ||
		write && !aifm.MetaAt(r.ost, c.obj).Dirty() {
		return nil
	}
	r.env.Clock.Advance(r.env.Costs.BoundaryCheck + r.env.Costs.LocalLoadStore)
	sim.Inc(&r.env.Counters.BoundaryChecks)
	return c.win[inObj : inObj+uint64(n)]
}

// LoadU64 reads element i as a uint64 (element size must be 8).
func (c *Cursor) LoadU64(i uint64) uint64 { return c.LoadU64At(i * c.elemSize) }

// StoreU64 writes element i as a uint64 (element size must be 8).
func (c *Cursor) StoreU64(i uint64, v uint64) { c.StoreU64At(i*c.elemSize, v) }

// LoadU64At reads the uint64 at byte offset byteOff from the cursor base:
// AccessAt for one word, without a caller buffer.
func (c *Cursor) LoadU64At(byteOff uint64) uint64 {
	if w := c.chunk(byteOff, 8, false); w != nil {
		return binary.LittleEndian.Uint64(w)
	}
	c.AccessAt(byteOff, c.scratch[:], false)
	return binary.LittleEndian.Uint64(c.scratch[:])
}

// StoreU64At writes v at byte offset byteOff from the cursor base.
func (c *Cursor) StoreU64At(byteOff uint64, v uint64) {
	if w := c.chunk(byteOff, 8, true); w != nil {
		binary.LittleEndian.PutUint64(w, v)
		return
	}
	binary.LittleEndian.PutUint64(c.scratch[:], v)
	c.AccessAt(byteOff, c.scratch[:], true)
}

// LoadF64 reads element i as a float64.
func (c *Cursor) LoadF64(i uint64) float64 { return float64frombits(c.LoadU64(i)) }

// StoreF64 writes element i as a float64.
func (c *Cursor) StoreF64(i uint64, v float64) { c.StoreU64(i, float64bits(v)) }

// Close releases the pinned chunk. Closing twice is a no-op, matching the
// compiler emitting Close on every loop exit edge.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.pinned {
		c.win = nil
		c.rt.pool.Unpin(c.obj)
		c.pinned = false
	}
}
