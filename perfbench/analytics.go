package main

import (
	"fmt"
	"time"

	"trackfm/internal/compiler"
	"trackfm/internal/core"
	"trackfm/internal/fabric"
	"trackfm/internal/interp"
	"trackfm/internal/ir"
	"trackfm/internal/sim"
	"trackfm/internal/workloads/analytics"
)

// analyticsCfg sizes analytics-compiled. The seed picks the row count in
// [Rows, Rows+Rows/16), which changes every column and query output.
type analyticsCfg struct {
	Rows       int64
	LocalShare float64 // local memory as a share of the working set
	Bare       bool    // leave the transport unwrapped (tests compare)
}

var analyticsDefault = analyticsCfg{Rows: 16384, LocalShare: 0.25}

func (c analyticsCfg) rows(seed uint64) int64 {
	return c.Rows + int64(sim.NewRNG(seed^0xA11A).Intn(int(c.Rows/16)))
}

// analyticsInst runs the compiled NYC-taxi-shaped program once per
// request, each time on a fresh runtime (the program allocates its
// dataframe on start), over one shared sim.Env so counters accumulate.
type analyticsInst struct {
	prog     *ir.Program
	want     int64
	rows     int64
	heap     uint64
	budget   uint64
	env      *sim.Env
	fab      fabCounts
	tr       *tracer
	calls    uint64
	compile  *compiler.Stats
	compileT time.Duration
	bare     bool
}

func setupAnalytics(cfg analyticsCfg, seed uint64) (*analyticsInst, error) {
	rows := cfg.rows(seed)
	acfg := analytics.Config{Rows: rows}
	ref, err := interp.Run(analytics.Program(acfg), interp.NewLocalBackend(sim.NewEnv()), interp.Options{})
	if err != nil {
		return nil, fmt.Errorf("analytics reference run: %w", err)
	}
	prog := analytics.Program(acfg)
	t0 := time.Now()
	st, err := compiler.Compile(prog, compiler.Options{
		Chunking: compiler.ChunkCostModel, ObjectSize: 4096, Prefetch: true, O1: true,
	})
	if err != nil {
		return nil, fmt.Errorf("analytics compile: %w", err)
	}
	ws := acfg.WorkingSetBytes()
	return &analyticsInst{
		prog:     prog,
		want:     ref.Return,
		rows:     rows,
		heap:     ws * 2,
		budget:   uint64(float64(ws) * cfg.LocalShare),
		env:      sim.NewEnv(),
		compile:  st,
		compileT: time.Since(t0),
		bare:     cfg.Bare,
	}, nil
}

func (a *analyticsInst) attach(tr *tracer) {
	a.tr = tr
	tr.clock = &a.env.Clock
}

func (a *analyticsInst) boundary() bool { return true }

func (a *analyticsInst) window() int { return 1 }

func (a *analyticsInst) limit() int { return 0 }

func (a *analyticsInst) next() (int, int64, error) {
	start := time.Now()
	if a.tr != nil {
		a.tr.begin(kCoreInit)
	}
	var link fabric.ErrorTransport // nil: the runtime's own SimLink
	if !a.bare {
		var ct *countingTransport
		link, ct = wrapTransport(fabric.NewSimLink(a.env, fabric.BackendTCP), &a.env.Clock, &a.fab)
		ct.tr = a.tr
	}
	rt, err := core.NewRuntime(core.Config{
		Env: a.env, ObjectSize: 4096, HeapSize: a.heap, LocalBudget: a.budget, Transport: link,
	})
	if a.tr != nil {
		a.tr.end()
	}
	if err != nil {
		return int(a.rows), -1, fmt.Errorf("analytics runtime: %w", err)
	}
	defer rt.Pool().Close()
	var be interp.Backend = interp.NewTrackFMBackend(rt)
	if a.tr != nil {
		be = &tracedBackend{inner: be, tr: a.tr, calls: &a.calls}
		a.tr.begin(kInterpRun)
	}
	res, err := interp.Run(a.prog, be, interp.Options{})
	if a.tr != nil {
		a.tr.end()
	}
	lat := int64(time.Since(start))
	if err != nil {
		return int(a.rows), lat, err
	}
	if res.Return != a.want {
		return int(a.rows), lat, wrongResult(fmt.Sprintf("analytics checksum %d, want %d", res.Return, a.want))
	}
	return int(a.rows), lat, nil
}

func (a *analyticsInst) snap() counts {
	c := snapEnv(a.env, &a.fab, nil)
	c.backendCalls = a.calls
	return c
}

func (a *analyticsInst) extra() map[string]float64 {
	return map[string]float64{
		"compiler.compile_ms":       float64(a.compileT) / 1e6,
		"compiler.guarded_accesses": float64(a.compile.GuardedAccesses),
		"compiler.o1_removed":       float64(a.compile.LoadsEliminated),
		"compiler.chunked_loops":    float64(a.compile.LoopsChunked),
	}
}

func (a *analyticsInst) close() {}
