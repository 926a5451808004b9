package main

import "sort"

// reservoir keeps a uniform random sample of at most max values
// (Algorithm R, fixed-seed xorshift), so percentiles of any number of
// observations need bounded memory.
type reservoir struct {
	v    []float32
	max  int
	seen uint64
	rng  uint64
}

func newReservoir(max int) reservoir {
	return reservoir{max: max, rng: 0x9E3779B97F4A7C15}
}

func (r *reservoir) add(x float32) {
	r.seen++
	if len(r.v) < r.max {
		r.v = append(r.v, x)
		return
	}
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if j := r.rng % r.seen; j < uint64(r.max) {
		r.v[j] = x
	}
}

// sorted returns the sample, sorted, scaled by k.
func (r *reservoir) sorted(k float64) []float64 {
	out := make([]float64, len(r.v))
	for i, x := range r.v {
		out[i] = float64(x) * k
	}
	sort.Float64s(out)
	return out
}

// quantileSorted interpolates linearly between order statistics.
func quantileSorted(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (v[i+1]-v[i])*(pos-float64(i))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}
