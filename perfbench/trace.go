package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"trackfm/internal/sim"
)

// kind names one instrumented call boundary. Its layer is the prefix
// before the dot.
type kind uint8

const (
	kInterpRun    kind = iota // interp.Run of one compiled query
	kCoreInit                 // core.NewRuntime
	kCoreGuard                // a guarded load/store into the far heap
	kCoreLocal                // a backend access to non-far (local) memory
	kCoreMalloc               // far-heap allocation
	kCoreChunk                // cursor open (tfm_init) or close
	kCoreCursor               // one chunked access through a cursor
	kFabFetch                 // demand fetch
	kFabPrefetch              // prefetch-flavoured fetch
	kFabPush                  // eviction write-back
	kFabDelete                // remote free
	kRemoteGet                // server-side store read
	kRemotePut                // server-side store write
	kRemoteDelete             // server-side store delete
	kKVGet                    // kv.Store.Get
	kKVSet                    // kv.Store.Set
	kScanPass                 // one full chunked sum pass
	kScanRMW                  // one point read-modify-write
	numKinds
)

var kindNames = [numKinds]string{
	"interp.run", "core.init", "core.guard", "core.local", "core.malloc",
	"core.chunk", "core.cursor", "fabric.fetch", "fabric.prefetch",
	"fabric.push", "fabric.delete", "remote.get", "remote.put",
	"remote.delete", "kv.get", "kv.set", "scan.pass", "scan.rmw",
}

func (k kind) String() string { return kindNames[k] }

// layer is the module a kind belongs to.
func (k kind) layer() string {
	n := kindNames[k]
	for i := 0; i < len(n); i++ {
		if n[i] == '.' {
			return n[:i]
		}
	}
	return n
}

// reservoirSize bounds the per-kind duration sample kept for percentiles.
const reservoirSize = 1 << 16

// spanKeep bounds how many raw spans a run keeps to write out.
const spanKeep = 50_000

// Span is one recorded call. Times are nanoseconds since the tracer's
// start; Sim is the simulated-clock delta across the call.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Sim    uint64 `json:"sim_cycles"`
}

// kindAgg aggregates the spans of one kind.
type kindAgg struct {
	self int64     // span time minus time covered by child spans, ns
	dur  reservoir // span durations, ns
}

func (a *kindAgg) add(dur, self int64) {
	a.self += self
	if a.dur.max == 0 {
		a.dur = newReservoir(reservoirSize)
	}
	a.dur.add(float32(dur))
}

type frame struct {
	id    uint64
	kind  kind
	start int64
	child int64
	sim0  uint64
}

// tracer records spans for the single client goroutine. Spans of one
// request share an op id; parents come from the open-span stack.
type tracer struct {
	base  time.Time
	clock *sim.Clock // nil: no simulated clock to sample
	op    uint64
	next  uint64
	stack []frame
	agg   [numKinds]kindAgg
	spans []Span

	// Cross-goroutine link to the fabric server's tracer: the span id
	// and op of the fabric call in flight, and the server time spent
	// inside it.
	curFabric atomic.Uint64
	curOp     atomic.Uint64
	remoteNs  atomic.Int64

	// unexplained samples fetch round trip minus server store time.
	unexplained kindAgg
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), stack: make([]frame, 0, 16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) simNow() uint64 {
	if t.clock == nil {
		return 0
	}
	return t.clock.Cycles()
}

// newOp starts a request: every span until the next newOp shares its id.
func (t *tracer) newOp() {
	t.op++
	t.stack = t.stack[:0] // a panicking request may leave spans open
}

func (t *tracer) begin(k kind) {
	t.next++
	t.stack = append(t.stack, frame{id: t.next, kind: k, sim0: t.simNow(), start: t.now()})
	if k >= kFabFetch && k <= kFabDelete {
		t.curFabric.Store(t.next)
		t.curOp.Store(t.op)
		t.remoteNs.Store(0)
	}
}

func (t *tracer) end() {
	end := t.now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	dur := end - f.start
	child := f.child
	if f.kind >= kFabFetch && f.kind <= kFabDelete {
		t.curFabric.Store(0)
		remote := t.remoteNs.Load()
		child += remote
		if f.kind == kFabFetch && remote > 0 {
			t.unexplained.add(dur-remote, 0)
		}
	}
	simDelta := t.simNow() - f.sim0
	t.agg[f.kind].add(dur, dur-child)
	var parent uint64
	if n > 0 {
		t.stack[n-1].child += dur
		parent = t.stack[n-1].id
	}
	if len(t.spans) < spanKeep {
		t.spans = append(t.spans, Span{ID: f.id, Parent: parent, Op: t.op,
			Name: f.kind.String(), Start: f.start, End: end, Sim: simDelta})
	}
}

// serverTracer records spans in the fabric server's goroutine, parented
// on the client's fabric call in flight (one loopback connection, one
// request at a time).
type serverTracer struct {
	client atomic.Pointer[tracer] // nil until tracing starts
	mu     sync.Mutex
	next   uint64
	agg    [numKinds]kindAgg
	spans  []Span
}

// Server span ids start high so they never collide with the client's.
func newServerTracer() *serverTracer { return &serverTracer{next: 1 << 62} }

// record ends a server span that began at start on client's time base.
func (s *serverTracer) record(client *tracer, k kind, start int64) {
	end := client.now()
	dur := end - start
	client.remoteNs.Add(dur)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	s.agg[k].add(dur, dur)
	if len(s.spans) < spanKeep {
		s.spans = append(s.spans, Span{ID: s.next, Parent: client.curFabric.Load(),
			Op: client.curOp.Load(), Name: k.String(), Start: start, End: end})
	}
}

// layerSelf sums self time by layer over the client and server tracers.
func layerSelf(t *tracer, s *serverTracer) map[string]int64 {
	out := map[string]int64{}
	for k := kind(0); k < numKinds; k++ {
		out[k.layer()] += t.agg[k].self
	}
	if s != nil {
		s.mu.Lock()
		for k := kind(0); k < numKinds; k++ {
			out[k.layer()] += s.agg[k].self
		}
		s.mu.Unlock()
	}
	return out
}

// quantileNs returns the q-quantile of a kind's sampled durations.
func (a *kindAgg) quantileNs(q float64) float64 { return quantileSorted(a.dur.sorted(1), q) }

// writeSpans writes the kept spans as JSON lines under dir.
func writeSpans(dir, name string, t *tracer, s *serverTracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	spans := t.spans
	if s != nil {
		s.mu.Lock()
		spans = append(append([]Span(nil), spans...), s.spans...)
		s.mu.Unlock()
	}
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("trace write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace flush: %w", err)
	}
	return path, f.Close()
}
