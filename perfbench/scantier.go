package main

import (
	"fmt"
	"time"

	"trackfm/internal/core"
	"trackfm/internal/fabric"
	"trackfm/internal/sim"
	"trackfm/internal/workloads/dist"
)

// scanCfg sizes scan-tier: a uint64 array twice the local budget, a
// compressed tier as large as the spill set, and rounds of one full
// chunked sum pass followed by a batch of zipf point updates.
type scanCfg struct {
	Elems   uint64 // array length (uint64 elements)
	Updates int    // point read-modify-writes per round
	Skew    float64
	Window  int  // rounds in the deterministic count window
	Bare    bool // leave the transport unwrapped (tests compare)
}

var scanDefault = scanCfg{Elems: 1 << 18, Updates: 4096, Skew: 0.99, Window: 2}

// valueMask keeps values to 16 bits, so objects compress in the tier.
const valueMask = 0xFFFF

type scanInst struct {
	cfg    scanCfg
	env    *sim.Env
	rt     *core.Runtime
	mem    scanMem
	fab    fabCounts
	ct     *countingTransport
	base   core.Ptr
	shadow []uint64
	sum    uint64
	zipf   *dist.Zipf
	rng    *sim.RNG
	step   int // position in the round: 0 is the pass, then the updates
	tr     *tracer
}

func setupScan(cfg scanCfg, seed uint64) (inst *scanInst, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("scan setup: %v", r)
		}
	}()
	s := &scanInst{cfg: cfg, env: sim.NewEnv()}
	bytes := cfg.Elems * 8
	var link fabric.ErrorTransport // nil: the runtime's own SimLink
	if !cfg.Bare {
		link, s.ct = wrapTransport(fabric.NewSimLink(s.env, fabric.BackendTCP), &s.env.Clock, &s.fab)
	}
	s.rt, err = core.NewRuntime(core.Config{
		Env: s.env, ObjectSize: 4096, HeapSize: 2 * bytes, LocalBudget: bytes / 2,
		CompressedBudget: bytes / 2, Transport: link,
	})
	if err != nil {
		return nil, fmt.Errorf("scan runtime: %w", err)
	}
	s.mem = directMem{s.rt}
	s.base = s.rt.MustMalloc(bytes)
	rng := sim.NewRNG(seed)
	s.shadow = make([]uint64, cfg.Elems)
	cur := s.rt.NewCursor(s.base, 8, true)
	for i := range s.shadow {
		v := rng.Uint64() & valueMask
		s.shadow[i] = v
		s.sum += v
		cur.StoreU64(uint64(i), v)
	}
	cur.Close()
	if s.zipf, err = dist.NewZipf(cfg.Elems, cfg.Skew, seed+1); err != nil {
		return nil, err
	}
	s.rng = sim.NewRNG(seed + 2)
	// One warm-up round settles the arena and the tier before timing.
	for i := 0; i <= cfg.Updates; i++ {
		if _, _, err := s.next(); err != nil {
			return nil, fmt.Errorf("scan warm-up: %w", err)
		}
	}
	return s, nil
}

func (s *scanInst) attach(tr *tracer) {
	s.tr = tr
	tr.clock = &s.env.Clock
	if s.ct != nil {
		s.ct.tr = tr
	}
	s.mem = tracedMem{rt: s.rt, tr: tr}
}

func (s *scanInst) boundary() bool { return s.step == 0 }

func (s *scanInst) window() int { return s.cfg.Window * (1 + s.cfg.Updates) }

func (s *scanInst) limit() int { return 0 }

// index spreads zipf ranks over the array: an odd multiplier is a
// bijection modulo a power of two, so hot elements land on many objects.
func (s *scanInst) index(rank uint64) uint64 {
	return (rank * 0x9E3779B97F4A7C15) & (s.cfg.Elems - 1)
}

func (s *scanInst) next() (int, int64, error) {
	step := s.step
	s.step = (s.step + 1) % (1 + s.cfg.Updates)
	if step == 0 {
		return s.pass()
	}
	return s.update()
}

// pass sums the whole array through a prefetching cursor; no latency
// sample (it is bulk work, not a request).
func (s *scanInst) pass() (int, int64, error) {
	n := int(s.cfg.Elems)
	if s.tr != nil {
		s.tr.begin(kScanPass)
		defer s.tr.end()
	}
	cur := s.mem.NewCursor(s.base, 8, true)
	var sum uint64
	for i := uint64(0); i < s.cfg.Elems; i++ {
		sum += cur.LoadU64(i)
	}
	cur.Close()
	if sum != s.sum {
		return n, -1, wrongResult(fmt.Sprintf("scan sum %d, want %d", sum, s.sum))
	}
	return n, -1, nil
}

// update is one guarded point read-modify-write, timed as a request.
func (s *scanInst) update() (int, int64, error) {
	i := s.index(s.zipf.Next())
	p := s.base.Add(i * 8)
	delta := 1 + s.rng.Uint64()&7
	start := time.Now()
	if s.tr != nil {
		s.tr.begin(kScanRMW)
	}
	v := s.mem.LoadU64(p)
	nv := (v + delta) & valueMask
	s.mem.StoreU64(p, nv)
	if s.tr != nil {
		s.tr.end()
	}
	lat := int64(time.Since(start))
	want := s.shadow[i]
	s.sum += nv - want
	s.shadow[i] = nv
	if v != want {
		return 1, lat, wrongResult(fmt.Sprintf("scan element %d is %d, want %d", i, v, want))
	}
	return 1, lat, nil
}

func (s *scanInst) snap() counts { return snapEnv(s.env, &s.fab, s.rt.Pool()) }

func (s *scanInst) extra() map[string]float64 { return nil }

func (s *scanInst) close() {
	if s.rt != nil {
		s.rt.Pool().Close()
	}
}
