package main

import (
	"trackfm/internal/core"
	"trackfm/internal/fabric"
	"trackfm/internal/interp"
	"trackfm/internal/sim"
	"trackfm/internal/workloads"
)

// This file holds the thin wrappers the benchmark puts at the public
// boundaries of each layer. They forward every call unchanged; the
// transport wrapper also counts calls, bytes and the simulated cycles
// charged inside the fabric, and every wrapper records a span when a
// tracer is attached.

// fabCounts tallies the transport calls of one workload instance.
type fabCounts struct {
	fetches, prefetches, pushes, deletes uint64
	errors                               uint64
	bytes                                uint64 // fetched plus pushed
	cycles                               uint64 // sim cycles charged inside transport calls
}

// countingTransport wraps a fabric.ErrorTransport. Use wrapTransport,
// which also forwards the optional interfaces the inner transport has.
type countingTransport struct {
	inner fabric.ErrorTransport
	clock *sim.Clock
	n     *fabCounts
	tr    *tracer // nil: untraced
}

func (c *countingTransport) begin(k kind) uint64 {
	if c.tr != nil {
		c.tr.begin(k)
	}
	return c.clock.Cycles()
}

func (c *countingTransport) end(c0 uint64, err error) {
	c.n.cycles += c.clock.Cycles() - c0
	if err != nil {
		c.n.errors++
	}
	if c.tr != nil {
		c.tr.end()
	}
}

func (c *countingTransport) TryFetchUntil(key uint64, dst []byte, dl fabric.Deadline) (bool, error) {
	c0 := c.begin(kFabFetch)
	found, err := c.inner.TryFetchUntil(key, dst, dl)
	c.n.fetches++
	if err == nil {
		c.n.bytes += uint64(len(dst))
	}
	c.end(c0, err)
	return found, err
}

func (c *countingTransport) TryPushUntil(key uint64, src []byte, dl fabric.Deadline) error {
	c0 := c.begin(kFabPush)
	err := c.inner.TryPushUntil(key, src, dl)
	c.n.pushes++
	if err == nil {
		c.n.bytes += uint64(len(src))
	}
	c.end(c0, err)
	return err
}

func (c *countingTransport) TryDeleteUntil(key uint64, dl fabric.Deadline) error {
	c0 := c.begin(kFabDelete)
	err := c.inner.TryDeleteUntil(key, dl)
	c.n.deletes++
	c.end(c0, err)
	return err
}

func (c *countingTransport) tryFetchAsync(key uint64, dst []byte) (bool, error) {
	c0 := c.begin(kFabPrefetch)
	found, err := c.inner.(fabric.AsyncFetcher).TryFetchAsync(key, dst)
	c.n.prefetches++
	if err == nil {
		c.n.bytes += uint64(len(dst))
	}
	c.end(c0, err)
	return found, err
}

func (c *countingTransport) peerIdentity() (uint64, bool) {
	return c.inner.(fabric.IdentityReporter).PeerIdentity()
}

type asyncTransport struct{ *countingTransport }

func (a asyncTransport) TryFetchAsync(key uint64, dst []byte) (bool, error) {
	return a.tryFetchAsync(key, dst)
}

type identityTransport struct{ *countingTransport }

func (i identityTransport) PeerIdentity() (uint64, bool) { return i.peerIdentity() }

type asyncIdentityTransport struct{ *countingTransport }

func (a asyncIdentityTransport) TryFetchAsync(key uint64, dst []byte) (bool, error) {
	return a.tryFetchAsync(key, dst)
}

func (a asyncIdentityTransport) PeerIdentity() (uint64, bool) { return a.peerIdentity() }

// wrapTransport returns inner wrapped for counting, exposing
// fabric.AsyncFetcher and fabric.IdentityReporter exactly when inner
// does: without the forward, fabric.FetchAsync would fall back to a
// demand fetch and change the prefetch cost model.
func wrapTransport(inner fabric.ErrorTransport, clock *sim.Clock, n *fabCounts) (fabric.ErrorTransport, *countingTransport) {
	c := &countingTransport{inner: inner, clock: clock, n: n}
	_, async := inner.(fabric.AsyncFetcher)
	_, ident := inner.(fabric.IdentityReporter)
	switch {
	case async && ident:
		return asyncIdentityTransport{c}, c
	case async:
		return asyncTransport{c}, c
	case ident:
		return identityTransport{c}, c
	}
	return c, c
}

// tracedStore wraps the fabric server's BlobStore.
type tracedStore struct {
	inner fabric.BlobStore
	st    *serverTracer
}

func (s *tracedStore) Put(key uint64, src []byte) error {
	tr := s.st.client.Load()
	if tr == nil {
		return s.inner.Put(key, src)
	}
	start := tr.now()
	err := s.inner.Put(key, src)
	s.st.record(tr, kRemotePut, start)
	return err
}

func (s *tracedStore) Get(key uint64, dst []byte) (bool, error) {
	tr := s.st.client.Load()
	if tr == nil {
		return s.inner.Get(key, dst)
	}
	start := tr.now()
	found, err := s.inner.Get(key, dst)
	s.st.record(tr, kRemoteGet, start)
	return found, err
}

func (s *tracedStore) Delete(key uint64) error {
	tr := s.st.client.Load()
	if tr == nil {
		return s.inner.Delete(key)
	}
	start := tr.now()
	err := s.inner.Delete(key)
	s.st.record(tr, kRemoteDelete, start)
	return err
}

// tracedBackend wraps an interp.Backend; every call is a span.
type tracedBackend struct {
	inner interp.Backend
	tr    *tracer
	calls *uint64
}

func (b *tracedBackend) Env() *sim.Env { return b.inner.Env() }
func (b *tracedBackend) Init()         { b.inner.Init() }

func (b *tracedBackend) Malloc(n uint64) uint64 {
	*b.calls++
	b.tr.begin(kCoreMalloc)
	v := b.inner.Malloc(n)
	b.tr.end()
	return v
}

func (b *tracedBackend) Free(addr uint64) {
	*b.calls++
	b.tr.begin(kCoreMalloc)
	b.inner.Free(addr)
	b.tr.end()
}

func (b *tracedBackend) LocalAlloc(n uint64) uint64 {
	*b.calls++
	b.tr.begin(kCoreLocal)
	v := b.inner.LocalAlloc(n)
	b.tr.end()
	return v
}

func accessKind(addr uint64) kind {
	if core.Ptr(addr).Managed() {
		return kCoreGuard
	}
	return kCoreLocal
}

func (b *tracedBackend) Load(addr uint64, guarded bool) uint64 {
	*b.calls++
	b.tr.begin(accessKind(addr))
	v := b.inner.Load(addr, guarded)
	b.tr.end()
	return v
}

func (b *tracedBackend) Store(addr uint64, v uint64, guarded bool) {
	*b.calls++
	b.tr.begin(accessKind(addr))
	b.inner.Store(addr, v, guarded)
	b.tr.end()
}

func (b *tracedBackend) OpenCursor(firstAddr uint64, stride int64, prefetch bool) interp.Cursor {
	*b.calls++
	b.tr.begin(kCoreChunk)
	c := b.inner.OpenCursor(firstAddr, stride, prefetch)
	b.tr.end()
	return &tracedCursor{inner: c, tr: b.tr, calls: b.calls}
}

type tracedCursor struct {
	inner interp.Cursor
	tr    *tracer
	calls *uint64
}

func (c *tracedCursor) Load(addr uint64) uint64 {
	*c.calls++
	c.tr.begin(kCoreCursor)
	v := c.inner.Load(addr)
	c.tr.end()
	return v
}

func (c *tracedCursor) Store(addr uint64, v uint64) {
	*c.calls++
	c.tr.begin(kCoreCursor)
	c.inner.Store(addr, v)
	c.tr.end()
}

func (c *tracedCursor) Close() {
	*c.calls++
	c.tr.begin(kCoreChunk)
	c.inner.Close()
	c.tr.end()
}

// tracedAccessor wraps a workloads.Accessor. With no tracer attached
// (during set-up) it only forwards.
type tracedAccessor struct {
	inner workloads.Accessor
	tr    *tracer
}

func (a *tracedAccessor) begin(k kind) {
	if a.tr != nil {
		a.tr.begin(k)
	}
}

func (a *tracedAccessor) end() {
	if a.tr != nil {
		a.tr.end()
	}
}

func (a *tracedAccessor) Env() *sim.Env { return a.inner.Env() }

func (a *tracedAccessor) Malloc(n uint64) uint64 {
	a.begin(kCoreMalloc)
	v := a.inner.Malloc(n)
	a.end()
	return v
}

func (a *tracedAccessor) LoadU64(addr uint64) uint64 {
	a.begin(kCoreGuard)
	v := a.inner.LoadU64(addr)
	a.end()
	return v
}

func (a *tracedAccessor) StoreU64(addr uint64, v uint64) {
	a.begin(kCoreGuard)
	a.inner.StoreU64(addr, v)
	a.end()
}

func (a *tracedAccessor) Load(addr uint64, dst []byte) {
	a.begin(kCoreGuard)
	a.inner.Load(addr, dst)
	a.end()
}

func (a *tracedAccessor) Store(addr uint64, src []byte) {
	a.begin(kCoreGuard)
	a.inner.Store(addr, src)
	a.end()
}

func (a *tracedAccessor) SeqReader(base uint64, elemSize int) workloads.SeqReader {
	return a.inner.SeqReader(base, elemSize)
}

func (a *tracedAccessor) Reset() { a.inner.Reset() }

// scanMem is the slice of core.Runtime the scan-tier workload calls.
type scanMem interface {
	LoadU64(p core.Ptr) uint64
	StoreU64(p core.Ptr, v uint64)
	NewCursor(base core.Ptr, elemSize int, prefetch bool) scanCursor
}

type scanCursor interface {
	LoadU64(i uint64) uint64
	Close()
}

// directMem calls the runtime with no wrapper.
type directMem struct{ rt *core.Runtime }

func (d directMem) LoadU64(p core.Ptr) uint64     { return d.rt.LoadU64(p) }
func (d directMem) StoreU64(p core.Ptr, v uint64) { d.rt.StoreU64(p, v) }
func (d directMem) NewCursor(base core.Ptr, elemSize int, prefetch bool) scanCursor {
	return d.rt.NewCursor(base, elemSize, prefetch)
}

// tracedMem wraps the runtime calls of scan-tier in spans.
type tracedMem struct {
	rt *core.Runtime
	tr *tracer
}

func (m tracedMem) LoadU64(p core.Ptr) uint64 {
	m.tr.begin(kCoreGuard)
	v := m.rt.LoadU64(p)
	m.tr.end()
	return v
}

func (m tracedMem) StoreU64(p core.Ptr, v uint64) {
	m.tr.begin(kCoreGuard)
	m.rt.StoreU64(p, v)
	m.tr.end()
}

func (m tracedMem) NewCursor(base core.Ptr, elemSize int, prefetch bool) scanCursor {
	m.tr.begin(kCoreChunk)
	c := m.rt.NewCursor(base, elemSize, prefetch)
	m.tr.end()
	return tracedScanCursor{c: c, tr: m.tr}
}

type tracedScanCursor struct {
	c  *core.Cursor
	tr *tracer
}

func (c tracedScanCursor) LoadU64(i uint64) uint64 {
	c.tr.begin(kCoreCursor)
	v := c.c.LoadU64(i)
	c.tr.end()
	return v
}

func (c tracedScanCursor) Close() {
	c.tr.begin(kCoreChunk)
	c.c.Close()
	c.tr.end()
}
