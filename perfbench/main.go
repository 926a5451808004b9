// Command perfbench is the repository's benchmark. It drives one workload
// through the layers' public Go APIs in a closed loop (one client
// goroutine; the next request starts when the previous one returns) and
// prints end-to-end metrics on both clocks — host wall time and the
// simulated 2.4 GHz cycle clock — or, with -trace 1, per-layer metrics
// from a second run whose layer boundaries are wrapped in spans.
//
//	bash perfbench/run.sh --workload kv-tcp --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See NOTES.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"trackfm/internal/aifm"
	"trackfm/internal/mem/bufpool"
	"trackfm/internal/mem/ctier"
	"trackfm/internal/obs"
	"trackfm/internal/sim"
)

// instance is one set-up workload, ready to serve requests.
type instance interface {
	// next runs one request and reports the ops it covered and its wall
	// latency in ns (negative: bulk work, not a latency sample).
	next() (ops int, latNs int64, err error)
	// window is the number of requests in the deterministic count window
	// that sim-clock, count and memory metrics are taken over.
	window() int
	// limit is the most requests a phase may run, 0 for no limit.
	limit() int
	// boundary reports whether the last request completed a cycle of the
	// workload's request mix; time slices end only there, so each slice
	// holds whole cycles.
	boundary() bool
	// snap returns cumulative counters.
	snap() counts
	// attach routes spans of subsequent requests to tr.
	attach(tr *tracer)
	// extra reports set-up metrics (the compiler's, for analytics).
	extra() map[string]float64
	close()
}

type workload struct {
	name  string
	reps  int // set-ups per run; setup_s is their median
	setup func(seed uint64, traced bool) (instance, error)
}

// workloadSet lists the workloads; NOTES.md says why each was chosen. They
// stress different layers: the compiler, interpreter and cursors
// (analytics-compiled), the TCP fabric and server (kv-tcp), and the
// compressed tier (scan-tier). BENCHMARK.json lists only kv-tcp and
// scan-tier: analytics-compiled's wall time drifts with the host beyond
// any bound the benchmark can hold, so it runs by name only.
var workloadSet = []workload{
	{
		name: "analytics-compiled",
		reps: 9,
		setup: func(seed uint64, _ bool) (instance, error) {
			a, err := setupAnalytics(analyticsDefault, seed)
			if err != nil {
				return nil, err
			}
			return a, nil
		},
	},
	{
		name: "kv-tcp",
		reps: 3,
		setup: func(seed uint64, traced bool) (instance, error) {
			k, err := setupKV(kvDefault, seed, traced)
			if err != nil {
				return nil, err
			}
			return k, nil
		},
	},
	{
		name: "scan-tier",
		reps: 9,
		setup: func(seed uint64, _ bool) (instance, error) {
			s, err := setupScan(scanDefault, seed)
			if err != nil {
				return nil, err
			}
			return s, nil
		},
	},
}

// wrongResult is an op whose output failed the benchmark's check.
type wrongResult string

func (w wrongResult) Error() string { return string(w) }

// counts is a cumulative snapshot of everything the count window reads.
type counts struct {
	cycles       uint64
	ctr          sim.Counters
	fab          fabCounts
	tier         ctier.StatsSnapshot
	tierRatio    float64
	wire         bufpool.StatsSnapshot
	evac         obs.HistogramSnapshot
	lockWait     obs.HistogramSnapshot
	decomp       obs.HistogramSnapshot
	frames       uint64 // fabric server frames (kv-tcp)
	heap         uint64 // far-heap bytes in use (kv-tcp)
	backendCalls uint64 // interp.Backend calls (traced analytics)
}

func snapEnv(env *sim.Env, fab *fabCounts, pool *aifm.Pool) counts {
	lat := env.Lat()
	c := counts{
		cycles:   env.Clock.Cycles(),
		ctr:      env.Counters.Snapshot(),
		fab:      *fab,
		wire:     bufpool.Wire.Stats(),
		evac:     lat.Evacuation.Snapshot(),
		lockWait: lat.LockWait.Snapshot(),
		decomp:   lat.TierDecompress.Snapshot(),
	}
	if pool != nil {
		if t := pool.CompressedTier(); t != nil {
			c.tier = t.Stats().Snapshot()
			if b := t.Bytes(); b > 0 {
				c.tierRatio = float64(t.RawBytes()) / float64(b)
			}
		}
	}
	return c
}

// phase is the outcome of one timed closed-loop phase.
type phase struct {
	attempted, failed int
	wrong             string // first wrong result
	firstErr          string // first failure of any kind
	reqs              int
	capped            bool      // the request limit, not the clock, ended the phase
	lat               []float64 // per-op latency of sampled requests, µs, sorted
	latN              uint64    // requests that gave a latency sample
	rates             []float64 // ops/s per time slice
	elapsed           time.Duration
	start, win        counts
	winOps            int
	mallocs           uint64
	winMem            uint64 // peak Go runtime memory in use over the count window
	gcs               uint32
	pauseNs           uint64
}

func (p *phase) opsPerSec() float64 { return median(p.rates) }

// slices is how many time slices a phase is cut into; ops_per_s is the
// median slice rate, which a burst of interference from other tenants
// of a shared host, spoiling a few slices, cannot move.
const slices = 20

// maxLatencySamples bounds the request latencies kept for percentiles.
const maxLatencySamples = 1 << 20

// measure runs inst in a closed loop for dur, and at least through its
// count window, but for no more requests than its limit.
func measure(inst instance, dur time.Duration, tr *tracer) *phase {
	p := &phase{}
	// The latency sample is allocated up front and never grows, so the
	// harness's own memory does not depend on how fast the program runs.
	lat := newReservoir(maxLatencySamples)
	lat.v = make([]float32, 0, maxLatencySamples)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	p.start = inst.snap()
	win, limit := inst.window(), inst.limit()
	sliceDur := dur / slices
	t0 := time.Now()
	sliceStart, sliceOps := t0, 0
	// Memory is sampled over the count window, which starts from the
	// collected heap above, so its peak depends on the requests run, not
	// on how fast they ran.
	mem := newMemSampler()
	lastMem := t0
	for {
		if tr != nil {
			tr.newOp()
		}
		ops, ns, err := safeNext(inst)
		p.attempted += ops
		p.reqs++
		if err != nil {
			p.failed += ops
			if p.firstErr == "" {
				p.firstErr = err.Error()
			}
			var w wrongResult
			if errors.As(err, &w) && p.wrong == "" {
				p.wrong = err.Error()
			}
		}
		if ns >= 0 {
			lat.add(float32(ns) / float32(ops))
		}
		sliceOps += ops
		now := time.Now()
		if p.reqs == win {
			p.win, p.winOps = inst.snap(), p.attempted
			p.winMem = max(p.winMem, mem.inUse())
		} else if p.reqs < win && now.Sub(lastMem) >= time.Millisecond {
			p.winMem = max(p.winMem, mem.inUse())
			lastMem = now
		}
		if d := now.Sub(sliceStart); d >= sliceDur && inst.boundary() {
			p.rates = append(p.rates, float64(sliceOps)/d.Seconds())
			sliceStart, sliceOps = now, 0
		}
		if (now.Sub(t0) >= dur || p.reqs == limit) && p.reqs >= win {
			p.capped = p.reqs == limit
			break
		}
	}
	p.elapsed = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.gcs = ms1.NumGC - ms0.NumGC
	p.pauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	p.lat, p.latN = lat.sorted(1e-3), lat.seen
	if len(p.rates) == 0 { // one request outlasted the whole phase
		p.rates = []float64{float64(p.attempted) / p.elapsed.Seconds()}
	}
	return p
}

// memSampler reads the Go runtime's memory in use: everything it has
// mapped minus what it released to the OS or holds free for reuse.
type memSampler struct{ s []metrics.Sample }

func newMemSampler() *memSampler {
	return &memSampler{s: []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
	}}
}

func (m *memSampler) inUse() uint64 {
	metrics.Read(m.s)
	return m.s[0].Value.Uint64() - m.s[1].Value.Uint64() - m.s[2].Value.Uint64()
}

// safeNext runs one request; a panic in a layer is a failed request, not
// a crashed run.
func safeNext(inst instance) (ops int, ns int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			ops, ns, err = 1, -1, fmt.Errorf("panic: %v", r)
		}
	}()
	return inst.next()
}

// benchSpec is the part of BENCHMARK.json the program reads: the
// workloads and the metrics it must print, with their units.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// units maps every metric BENCHMARK.json lists to its unit.
var units map[string]string

// loadSpec reads BENCHMARK.json at path and fills units.
func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchSpec
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	units = map[string]string{}
	for _, m := range append(append([]metricSpec(nil), b.EndToEnd...), b.PerLayer...) {
		units[m.Name] = m.Unit
	}
	return &b, nil
}

func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric not listed in BENCHMARK.json: " + name)
	}
	return u
}

// missing names the listed metrics that r lacks.
func missing(r *result, want []metricSpec) []string {
	var out []string
	for _, m := range want {
		if _, ok := r.Metrics[m.Name]; !ok {
			out = append(out, m.Name)
		}
	}
	return out
}

// metric is one named value in the output.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: analytics-compiled, kv-tcp, scan-tier, or all (each in turn)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	var ws []*workload
	for i := range workloadSet {
		if *name == "all" || workloadSet[i].name == *name {
			ws = append(ws, &workloadSet[i])
		}
	}
	if len(ws) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s or all), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fail(fmt.Errorf("run from the repository root: %w", err))
	}
	want := spec.EndToEnd
	if *trace == 1 {
		want = spec.PerLayer
	}
	// With several workloads, each prints its own block and the last
	// line merges them under "<workload>/<metric>".
	total := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		host, err := json.Marshal(hostInfo(w.name, *seed))
		if err != nil {
			fail(err)
		}
		fmt.Printf("host %s\n", host)
		res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if err != nil {
			fail(err)
		}
		if m := missing(res, want); len(m) > 0 {
			fail(fmt.Errorf("%s printed no %s", w.name, strings.Join(m, ", ")))
		}
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := res.Metrics[n]
			fmt.Printf("metric %-18s %-34s %14.6g %s\n", w.name, n, m.Value, m.Unit)
			total.Metrics[w.name+"/"+n] = m
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		if len(ws) == 1 {
			total = res
		}
	}
	out, err := json.Marshal(total)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() string {
	var n []string
	for _, w := range workloadSet {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

// run sets the workload up reps times (setup_s is the median), then
// measures. Untraced, one phase gives the end-to-end metrics. Traced, an
// untraced half and a traced half on a fresh set-up give the per-layer
// metrics and the tracing overhead.
func run(w *workload, seed uint64, dur time.Duration, traced bool) (*result, error) {
	var setups []float64
	var inst instance
	for i := 0; i < w.reps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC() // each set-up starts from a collected heap, untimed
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed, false); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if !traced {
		p := measure(inst, dur, nil)
		inst.close()
		return endToEnd(p, median(setups)), nil
	}
	a := measure(inst, dur/2, nil)
	inst.close()
	tinst, err := w.setup(seed, true)
	if err != nil {
		return nil, fmt.Errorf("%s traced set-up: %w", w.name, err)
	}
	defer tinst.close()
	tr := newTracer()
	tinst.attach(tr)
	b := measure(tinst, dur/2, tr)
	var srv *serverTracer
	if k, ok := tinst.(*kvInst); ok {
		srv = k.srvTr
	}
	if path, err := writeSpans(".bench_build/traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed), tr, srv); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
	} else {
		fmt.Printf("spans %s\n", path)
	}
	return perLayer(a, b, tr, srv, tinst.extra()), nil
}

func outcome(p *phase) *result {
	return &result{
		Correct:   p.wrong == "",
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics:   map[string]metric{},
	}
}

func report(p *phase) {
	fmt.Printf("phase requests=%d capped=%v ops=%d failed=%d failed_ops_frac=%.6g latency_samples=%d (kept %d) window_ops=%d elapsed_s=%.3f\n",
		p.reqs, p.capped, p.attempted, p.failed, float64(p.failed)/float64(p.attempted), p.latN, len(p.lat), p.winOps, p.elapsed.Seconds())
	fmt.Printf("slice_rates %s\n", fmtRates(p.rates))
	if p.firstErr != "" {
		fmt.Printf("first failure: %s\n", p.firstErr)
	}
}

func fmtRates(r []float64) string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", v)
	}
	return b.String()
}

func endToEnd(p *phase, setup float64) *result {
	report(p)
	r := outcome(p)
	ops := float64(p.winOps)
	set := func(n string, v float64) { r.Metrics[n] = metric{v, unitOf(n)} }
	set("ops_per_s", p.opsPerSec())
	set("op_p50_us", quantileSorted(p.lat, 0.50))
	set("op_p99_us", quantileSorted(p.lat, 0.99))
	set("sim_cycles_per_op", float64(p.win.cycles-p.start.cycles)/ops)
	set("fabric_bytes_per_op", float64(p.win.fab.bytes-p.start.fab.bytes)/ops)
	set("allocs_per_op", float64(p.mallocs)/float64(p.attempted))
	set("host_mem_mb", float64(p.winMem)/(1<<20))
	set("setup_s", setup)
	return r
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics: counts from the traced
// phase's count window, wall times from its spans, Go runtime figures
// and the tracing overhead against the untraced phase a.
func perLayer(a, b *phase, tr *tracer, srv *serverTracer, extra map[string]float64) *result {
	report(b)
	r := outcome(b)
	r.Attempted += a.attempted
	r.Failed += a.failed
	r.Correct = r.Correct && a.wrong == ""
	set := func(n string, v float64) { r.Metrics[n] = metric{v, unitOf(n)} }
	s, e := b.start, b.win
	ops := float64(b.winOps)
	per := func(x uint64) float64 { return float64(x) / ops }
	d := e.ctr.Delta(s.ctr)
	traceMs := float64(b.elapsed) / 1e6
	self := layerSelf(tr, srv)
	selfShare := func(layer string) float64 { return float64(self[layer]) / 1e6 / (traceMs / 1e3) }

	for _, n := range []string{"compiler.compile_ms", "compiler.guarded_accesses", "compiler.o1_removed", "compiler.chunked_loops"} {
		set(n, extra[n])
	}
	set("interp.self_ms", selfShare("interp"))
	set("interp.backend_calls_per_op", per(e.backendCalls-s.backendCalls))

	set("core.guard_calls_per_op", per(d.Guards()))
	set("core.guard_ns_p50", tr.agg[kCoreGuard].quantileNs(0.50))
	set("core.guard_ns_p99", tr.agg[kCoreGuard].quantileNs(0.99))
	set("core.guard_fast_ratio", ratio(float64(d.FastPathGuards), float64(d.Guards())))
	set("core.cursor_calls_per_op", per(d.BoundaryChecks))
	set("core.cursor_ns_p50", tr.agg[kCoreCursor].quantileNs(0.50))
	set("core.chunk_inits_per_op", per(d.ChunkInits))
	set("core.prefetch_hit_ratio", ratio(float64(d.PrefetchHits), float64(d.PrefetchIssued)))
	set("core.self_ms", selfShare("core"))

	set("aifm.remote_fetches_per_op", per(d.RemoteFetches))
	set("aifm.evacuations_per_op", per(d.Evacuations))
	set("aifm.refault_ratio", ratio(float64(d.Refaults), float64(d.RemoteFetches)))
	set("aifm.evacuation_cycles_p50", e.evac.Delta(s.evac).Quantile(0.50))
	set("aifm.lock_wait_cycles_p99", e.lockWait.Delta(s.lockWait).Quantile(0.99))
	set("aifm.eviction_stalls", float64(d.EvictionStalls))

	hits, misses := e.tier.Hits-s.tier.Hits, e.tier.Misses-s.tier.Misses
	set("ctier.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	set("ctier.demotes_per_op", per(e.tier.Demotes-s.tier.Demotes))
	set("ctier.evictions_per_op", per(e.tier.Evictions-s.tier.Evictions))
	set("ctier.compression_ratio", e.tierRatio)
	set("ctier.decompress_cycles_p50", e.decomp.Delta(s.decomp).Quantile(0.50))

	gets := e.wire.Gets - s.wire.Gets
	set("bufpool.gets_per_op", per(gets))
	set("bufpool.miss_ratio", ratio(float64(e.wire.Misses-s.wire.Misses), float64(gets)))

	f := e.fab
	f0 := s.fab
	set("fabric.fetch_calls_per_op", per(f.fetches+f.prefetches-f0.fetches-f0.prefetches))
	set("fabric.push_calls_per_op", per(f.pushes-f0.pushes))
	set("fabric.fetch_us_p50", tr.agg[kFabFetch].quantileNs(0.50)/1e3)
	set("fabric.fetch_us_p99", tr.agg[kFabFetch].quantileNs(0.99)/1e3)
	set("fabric.push_us_p50", tr.agg[kFabPush].quantileNs(0.50)/1e3)
	set("fabric.push_us_p99", tr.agg[kFabPush].quantileNs(0.99)/1e3)
	set("fabric.errors_per_op", per(f.errors-f0.errors))
	set("fabric.server_frames_per_op", per(e.frames-s.frames))
	set("fabric.cycles_share", ratio(float64(f.cycles-f0.cycles), float64(e.cycles-s.cycles)))

	var get, put float64
	if srv != nil {
		srv.mu.Lock()
		get = srv.agg[kRemoteGet].quantileNs(0.50) / 1e3
		put = srv.agg[kRemotePut].quantileNs(0.50) / 1e3
		srv.mu.Unlock()
	}
	set("remote.get_us_p50", get)
	set("remote.put_us_p50", put)
	set("remote.rtt_unexplained_us_p50", tr.unexplained.quantileNs(0.50)/1e3)

	set("kv.far_heap_growth_bytes_per_op", (float64(e.heap)-float64(s.heap))/ops)

	set("go.gc_cycles_per_kop", float64(a.gcs)/(float64(a.attempted)/1e3))
	set("go.gc_pause_ms", float64(a.pauseNs)/1e6)

	set("trace.overhead_frac", 1-b.opsPerSec()/a.opsPerSec())
	return r
}
