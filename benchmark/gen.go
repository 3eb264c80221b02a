package main

import (
	"math"
	"math/bits"
)

// The benchmark owns its input generators rather than calling the
// program's workload package, so a change to the program can never change
// the inputs it is measured on. Every generator is a pure function of the
// seed.

// rng is a splitmix64 generator.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// keyBits is the width of the uniform key space, the paper's 40-bit
// microbenchmark keys.
const keyBits = 40

const keyMask = 1<<keyBits - 1

// keySeq maps a counter to distinct, uniformly scattered keys in
// [1, 2^40]: a seeded bijection of [0, 2^40) plus one. Distinct keys by
// construction let the uniform workloads keep an exact model in O(1)
// memory — the live set is the keys of a counter interval.
type keySeq struct{ x1, m1, m2, add uint64 }

func newKeySeq(seed uint64) keySeq {
	r := newRNG(seed ^ 0x6B657973)
	return keySeq{
		x1:  r.next() & keyMask,
		m1:  r.next()&keyMask | 1,
		m2:  r.next()&keyMask | 1,
		add: r.next() & keyMask,
	}
}

// key returns the c-th key of the sequence. Each step is a bijection on
// 40-bit words, so distinct counters below 2^40 give distinct keys.
func (q keySeq) key(c uint64) uint64 {
	x := (c ^ q.x1) & keyMask
	x = x * q.m1 & keyMask
	x ^= x >> 19
	x = x * q.m2 & keyMask
	x ^= x >> 21
	x = (x + q.add) & keyMask
	return x + 1
}

// keys returns the keys for counters [from, from+n).
func (q keySeq) keys(from uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = q.key(from + uint64(i))
	}
	return out
}

// powerLaw draws unscrambled power-law ranks in [1, 2^bits) by inverse-CDF
// sampling of x^-s: rank 1 is the hottest key, and with s=2.5 about two
// thirds of all draws are key 1.
type powerLaw struct {
	r        *rng
	n        float64
	oneMinus float64
	tail     float64
}

func newPowerLaw(r *rng, s float64, bits int) *powerLaw {
	n := float64(uint64(1)<<bits) - 1
	om := 1 - s
	return &powerLaw{r: r, n: n, oneMinus: om, tail: math.Pow(n+1, om) - 1}
}

func (p *powerLaw) next() uint64 {
	x := math.Pow(1+p.r.float()*p.tail, 1/p.oneMinus)
	k := uint64(x)
	if k < 1 {
		k = 1
	}
	if k > uint64(p.n) {
		k = uint64(p.n)
	}
	return k
}

// rmatEdge samples one directed edge over 2^scale vertices from R-MAT with
// the paper's parameters (a=0.5, b=c=0.1).
func rmatEdge(r *rng, scale int) (src, dst uint32) {
	for bit := 0; bit < scale; bit++ {
		u := r.float()
		switch {
		case u < 0.5:
		case u < 0.6:
			dst |= 1 << bit
		case u < 0.7:
			src |= 1 << bit
		default:
			src |= 1 << bit
			dst |= 1 << bit
		}
	}
	return src, dst
}

func edgeKey(src, dst uint32) uint64 { return uint64(src)<<32 | uint64(dst) }

// radixSort sorts keys of at most 48 bits in place (LSD, 16-bit digits),
// several times faster than a comparison sort at the preload sizes.
func radixSort(a []uint64) {
	if len(a) < 2 {
		return
	}
	buf := make([]uint64, len(a))
	src, dst := a, buf
	for shift := uint(0); shift < 48; shift += 16 {
		var cnt [1 << 16]int
		for _, v := range src {
			cnt[v>>shift&0xFFFF]++
		}
		pos := 0
		for i, c := range cnt {
			cnt[i] = pos
			pos += c
		}
		for _, v := range src {
			d := v >> shift & 0xFFFF
			dst[cnt[d]] = v
			cnt[d]++
		}
		src, dst = dst, src
	}
	// Three passes leave the result in buf.
	copy(a, src)
}
