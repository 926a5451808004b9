package main

import (
	"fmt"
	"time"

	"trackfm/internal/core"
	"trackfm/internal/fabric"
	"trackfm/internal/remote"
	"trackfm/internal/sim"
	"trackfm/internal/workloads"
	"trackfm/internal/workloads/dist"
	"trackfm/internal/workloads/kv"
)

// kvCfg sizes kv-tcp. The far heap is four times the working set and
// local memory a quarter of it, as in examples/kvstore.
type kvCfg struct {
	Keys    int
	Skew    float64
	SetPct  int // share of requests that overwrite a key, in percent
	Window  int // requests in the deterministic count window
	Warmup  int // requests run at the end of set-up, before timing
	Limit   int // most requests a timed phase runs
	MaxItem int // largest value a Get must read back
}

var kvDefault = kvCfg{Keys: 150_000, Skew: 1.05, SetPct: 10, Window: 50_000, Warmup: 150_000, Limit: 3_000_000, MaxItem: 2048}

// kvInst drives a kv.Store whose far memory sits behind an in-process
// fabric.Server on one loopback TCP connection.
type kvInst struct {
	cfg    kvCfg
	srv    *fabric.Server
	tcp    *fabric.TCPTransport
	ct     *countingTransport
	env    *sim.Env
	rt     *core.Runtime
	acc    *tracedAccessor // nil when untraced
	st     *kv.Store
	fab    fabCounts
	keyLen []int
	valLen []int // shadow: length of the last Set per key
	usr    *dist.USR
	zipf   *dist.Zipf
	rng    *sim.RNG
	buf    []byte
	srvTr  *serverTracer
	tr     *tracer
}

func setupKV(cfg kvCfg, seed uint64, traced bool) (inst *kvInst, err error) {
	k := &kvInst{cfg: cfg, env: sim.NewEnv(), buf: make([]byte, cfg.MaxItem)}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("kv setup: %v", r)
		}
		if err != nil {
			k.close()
		}
	}()
	var store fabric.BlobStore = remote.NewStore()
	if traced {
		k.srvTr = newServerTracer()
		store = &tracedStore{inner: store, st: k.srvTr}
	}
	k.srv = fabric.NewServer(store)
	addr, err := k.srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("kv server: %w", err)
	}
	if k.tcp, err = fabric.Dial(addr); err != nil {
		return nil, fmt.Errorf("kv dial: %w", err)
	}
	ws := uint64(cfg.Keys) * (kv.EstimatedItemBytes(1, 4096) + 16)
	var link fabric.ErrorTransport
	link, k.ct = wrapTransport(k.tcp, &k.env.Clock, &k.fab)
	k.rt, err = core.NewRuntime(core.Config{
		Env: k.env, ObjectSize: 64, HeapSize: ws * 4, LocalBudget: ws / 4, Transport: link,
	})
	if err != nil {
		return nil, fmt.Errorf("kv runtime: %w", err)
	}
	var acc workloads.Accessor = &workloads.TrackFMAccessor{RT: k.rt}
	if traced {
		k.acc = &tracedAccessor{inner: acc}
		acc = k.acc
	}
	if k.st, err = kv.NewStore(acc, cfg.Keys); err != nil {
		return nil, err
	}
	k.usr = dist.NewUSR(seed)
	k.keyLen = make([]int, cfg.Keys)
	k.valLen = make([]int, cfg.Keys)
	for i := 0; i < cfg.Keys; i++ {
		k.keyLen[i], k.valLen[i] = k.usr.KeySize(), k.usr.ValueSize()
		if err := k.st.Set(uint64(i)+1, k.keyLen[i], k.valLen[i]); err != nil {
			return nil, fmt.Errorf("kv populate: %w", err)
		}
	}
	if k.zipf, err = dist.NewZipf(uint64(cfg.Keys), cfg.Skew, seed+1); err != nil {
		return nil, err
	}
	k.rng = sim.NewRNG(seed + 2)
	// Warm-up requests move the hot keys into local memory before timing.
	for i := 0; i < cfg.Warmup; i++ {
		if _, _, err := k.next(); err != nil {
			return nil, fmt.Errorf("kv warm-up: %w", err)
		}
	}
	return k, nil
}

func (k *kvInst) attach(tr *tracer) {
	k.tr = tr
	tr.clock = &k.env.Clock
	k.ct.tr = tr
	if k.acc != nil {
		k.acc.tr = tr
	}
	if k.srvTr != nil {
		k.srvTr.client.Store(tr)
	}
}

func (k *kvInst) boundary() bool { return true }

func (k *kvInst) window() int { return k.cfg.Window }

func (k *kvInst) limit() int { return k.cfg.Limit }

func (k *kvInst) next() (int, int64, error) {
	key := k.zipf.Next() + 1
	if k.rng.Intn(100) < k.cfg.SetPct {
		vl := k.usr.ValueSize()
		start := time.Now()
		if k.tr != nil {
			k.tr.begin(kKVSet)
		}
		err := k.st.Set(key, k.keyLen[key-1], vl)
		if k.tr != nil {
			k.tr.end()
		}
		lat := int64(time.Since(start))
		if err != nil {
			return 1, lat, err
		}
		k.valLen[key-1] = vl
		return 1, lat, nil
	}
	start := time.Now()
	if k.tr != nil {
		k.tr.begin(kKVGet)
	}
	n, ok := k.st.Get(key, k.buf)
	if k.tr != nil {
		k.tr.end()
	}
	lat := int64(time.Since(start))
	if !ok || n != k.valLen[key-1] {
		return 1, lat, wrongResult(fmt.Sprintf("kv get %d: found=%v len %d, want %d", key, ok, n, k.valLen[key-1]))
	}
	for i, b := range k.buf[:n] {
		if b != byte(key+uint64(i)) {
			return 1, lat, wrongResult(fmt.Sprintf("kv get %d: byte %d is %d, want %d", key, i, b, byte(key+uint64(i))))
		}
	}
	return 1, lat, nil
}

func (k *kvInst) snap() counts {
	c := snapEnv(k.env, &k.fab, k.rt.Pool())
	c.frames = k.srv.Stats().Frames()
	c.heap = k.rt.HeapBytesInUse()
	return c
}

func (k *kvInst) extra() map[string]float64 { return nil }

func (k *kvInst) close() {
	if k.tcp != nil {
		k.tcp.Close()
	}
	if k.srv != nil {
		_ = k.srv.Shutdown(time.Second) // teardown: a forced close is fine here
	}
	if k.rt != nil {
		k.rt.Pool().Close()
	}
}
