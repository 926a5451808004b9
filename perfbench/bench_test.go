package main

import (
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"trackfm/internal/fabric"
	"trackfm/internal/sim"
)

var (
	smallAnalytics = analyticsCfg{Rows: 2048, LocalShare: 0.25}
	smallScan      = scanCfg{Elems: 1 << 14, Updates: 256, Skew: 0.99, Window: 2}
	smallKV        = kvCfg{Keys: 2000, Skew: 1.05, SetPct: 10, Window: 2000, Warmup: 2000, Limit: 5000, MaxItem: 2048}
)

// windowRun is what a count window produced: the deterministic figures
// a benchmark run reports on the simulated clock.
type windowRun struct {
	cycles   uint64
	ctr      sim.Counters
	fab      fabCounts
	tierHits uint64
	demotes  uint64
	evacP50  float64
	ops      int
	failed   int
	inputs   uint64 // a digest of the generated inputs
}

func runWindow(t *testing.T, inst instance, traced bool) windowRun {
	t.Helper()
	var tr *tracer
	if traced {
		tr = newTracer()
		inst.attach(tr)
	}
	s := inst.snap()
	var w windowRun
	for i := 0; i < inst.window(); i++ {
		if tr != nil {
			tr.newOp()
		}
		ops, _, err := safeNext(inst)
		w.ops += ops
		if err != nil {
			w.failed += ops
			t.Errorf("request %d: %v", i, err)
		}
	}
	e := inst.snap()
	w.cycles = e.cycles - s.cycles
	w.ctr = e.ctr.Delta(s.ctr)
	w.fab = fabCounts{
		fetches: e.fab.fetches - s.fab.fetches, prefetches: e.fab.prefetches - s.fab.prefetches,
		pushes: e.fab.pushes - s.fab.pushes, deletes: e.fab.deletes - s.fab.deletes,
		errors: e.fab.errors - s.fab.errors, bytes: e.fab.bytes - s.fab.bytes,
		cycles: e.fab.cycles - s.fab.cycles,
	}
	w.tierHits = e.tier.Hits - s.tier.Hits
	w.demotes = e.tier.Demotes - s.tier.Demotes
	w.evacP50 = e.evac.Delta(s.evac).Quantile(0.5)
	if traced && tr.agg[kCoreGuard].dur.seen == 0 {
		t.Errorf("traced run recorded no guard spans")
	}
	return w
}

// TestWrappersKeepTheProgramDeterministic runs short analytics-compiled
// and scan-tier count windows twice at one seed, with the traced
// wrappers and with no wrapper at all: the simulated clock, every counter
// and the results must be identical. Another seed must change the inputs.
func TestWrappersKeepTheProgramDeterministic(t *testing.T) {
	setups := map[string]func(seed uint64, bare bool) instance{
		"analytics-compiled": func(seed uint64, bare bool) instance {
			cfg := smallAnalytics
			cfg.Bare = bare
			a, err := setupAnalytics(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		"scan-tier": func(seed uint64, bare bool) instance {
			cfg := smallScan
			cfg.Bare = bare
			s, err := setupScan(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	digest := map[string]func(instance) uint64{
		"analytics-compiled": func(i instance) uint64 { return uint64(i.(*analyticsInst).want) },
		"scan-tier":          func(i instance) uint64 { return i.(*scanInst).sum },
	}
	for name, setup := range setups {
		t.Run(name, func(t *testing.T) {
			run := func(seed uint64, bare, traced bool) windowRun {
				inst := setup(seed, bare)
				defer inst.close()
				in := digest[name](inst)
				w := runWindow(t, inst, traced)
				w.inputs = in
				return w
			}
			first := run(1, false, false)
			if first.cycles == 0 || first.fab.bytes == 0 || first.failed != 0 {
				t.Fatalf("degenerate window: %+v", first)
			}
			if again := run(1, false, false); !reflect.DeepEqual(again, first) {
				t.Errorf("same seed differs:\n%+v\n%+v", first, again)
			}
			if traced := run(1, false, true); !reflect.DeepEqual(traced, first) {
				t.Errorf("traced wrappers changed the run:\n%+v\n%+v", first, traced)
			}
			bare := run(1, true, false)
			if bare.cycles != first.cycles || bare.ctr != first.ctr || bare.inputs != first.inputs ||
				bare.tierHits != first.tierHits || bare.evacP50 != first.evacP50 {
				t.Errorf("the transport wrapper changed the run:\n%+v\n%+v", first, bare)
			}
			if other := run(2, false, false); other.inputs == first.inputs {
				t.Errorf("seed 2 generated the same inputs as seed 1")
			}
		})
	}
}

type identityOnly struct{ fabric.ErrorTransport }

func (identityOnly) PeerIdentity() (uint64, bool) { return 7, true }

// TestWrapTransportForwardsOptionalInterfaces pins that the counting
// wrapper exposes AsyncFetcher and IdentityReporter exactly when the
// wrapped transport does.
func TestWrapTransportForwardsOptionalInterfaces(t *testing.T) {
	env := sim.NewEnv()
	link := fabric.NewSimLink(env, fabric.BackendTCP)
	var n fabCounts
	w, _ := wrapTransport(link, &env.Clock, &n)
	if _, ok := w.(fabric.AsyncFetcher); !ok {
		t.Error("SimLink wrapper hides AsyncFetcher")
	}
	if _, ok := w.(fabric.IdentityReporter); ok {
		t.Error("SimLink wrapper claims IdentityReporter")
	}
	w, _ = wrapTransport(identityOnly{link}, &env.Clock, &n)
	if _, ok := w.(fabric.AsyncFetcher); ok {
		t.Error("wrapper claims AsyncFetcher its inner transport lacks")
	}
	if ir, ok := w.(fabric.IdentityReporter); !ok {
		t.Error("wrapper hides IdentityReporter")
	} else if gen, durable := ir.PeerIdentity(); gen != 7 || !durable {
		t.Errorf("PeerIdentity = %d, %v", gen, durable)
	}

	// A prefetch through the wrapper must cost what it costs unwrapped.
	buf := make([]byte, 4096)
	c0 := env.Clock.Cycles()
	if _, err := fabric.FetchAsync(link, 1, buf); err != nil {
		t.Fatal(err)
	}
	direct := env.Clock.Cycles() - c0
	w, _ = wrapTransport(link, &env.Clock, &n)
	c0 = env.Clock.Cycles()
	if _, err := fabric.FetchAsync(w, 1, buf); err != nil {
		t.Fatal(err)
	}
	if wrapped := env.Clock.Cycles() - c0; wrapped != direct || n.prefetches != 1 || n.bytes != 4096 {
		t.Errorf("wrapped prefetch: %d cycles (direct %d), counts %+v", wrapped, direct, n)
	}
}

// TestKVOverTCP runs a short kv-tcp phase with tracing: every get must
// read back the last set, the request limit must end the phase, and the
// server-side spans must be linked to the client's fabric calls.
func TestKVOverTCP(t *testing.T) {
	k, err := setupKV(smallKV, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	defer k.close()
	tr := newTracer()
	k.attach(tr)
	p := measure(k, time.Minute, tr)
	if p.failed != 0 || p.attempted < smallKV.Window {
		t.Fatalf("attempted %d, failed %d: %s", p.attempted, p.failed, p.firstErr)
	}
	if !p.capped || p.reqs != smallKV.Limit {
		t.Errorf("phase ran %d requests (capped %v), want the limit %d", p.reqs, p.capped, smallKV.Limit)
	}
	r := perLayer(p, p, tr, k.srvTr, k.extra())
	for _, n := range []string{"fabric.fetch_us_p50", "remote.get_us_p50", "remote.put_us_p50", "fabric.server_frames_per_op"} {
		if r.Metrics[n].Value <= 0 {
			t.Errorf("%s = %v, want > 0", n, r.Metrics[n].Value)
		}
	}
	linked := 0
	for _, s := range k.srvTr.spans {
		if s.Parent != 0 {
			linked++
		}
	}
	if linked == 0 {
		t.Error("no server span is parented on a client fabric call")
	}
}

// TestMain loads the metric list the program prints from BENCHMARK.json.
func TestMain(m *testing.M) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	benchJSON = spec
	os.Exit(m.Run())
}

var benchJSON *benchSpec

// TestEveryListedMetricIsPrinted checks that the program runs every
// workload BENCHMARK.json lists and that both modes print every metric it
// lists, and nothing else.
func TestEveryListedMetricIsPrinted(t *testing.T) {
	known := map[string]bool{}
	for _, w := range workloadSet {
		known[w.name] = true
	}
	for _, w := range benchJSON.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json lists workload %q, which the program does not run", w.Name)
		}
	}
	a, err := setupAnalytics(smallAnalytics, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := measure(a, 10*time.Millisecond, nil)
	tr := newTracer()
	a.attach(tr)
	pt := measure(a, 10*time.Millisecond, tr)
	for _, c := range []struct {
		kind string
		r    *result
		want []metricSpec
	}{
		{"end_to_end", endToEnd(p, 0.5), benchJSON.EndToEnd},
		{"per_layer", perLayer(p, pt, tr, nil, a.extra()), benchJSON.PerLayer},
	} {
		if m := missing(c.r, c.want); len(m) > 0 {
			t.Errorf("%s: not printed: %v", c.kind, m)
		}
		if len(c.r.Metrics) != len(c.want) {
			t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", c.kind, len(c.r.Metrics), len(c.want))
		}
	}
}
