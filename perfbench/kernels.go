package main

import (
	"time"

	"github.com/algebraic-clique/algclique/internal/bilinear"
	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// kernelShapes derives the square block side each engine multiplies
// locally at clique size n:
//
//   - Fast (bilinear, §2.2): node w < m multiplies two (n/d)×(n/d) blocks,
//     d = bilinear.Pick(n).D — ring products, so ParMulInto's band kernel.
//     A size without a scheme is padded to the next one that has one.
//   - 3D (§2.1): with c = ccmm.CbrtCeil(n), each live subcube multiplies
//     two c²×c² blocks — min-plus products (MulMinPlusInto) and, for
//     Boolean products on the semiring engine, the bit-packed MulBitInto.
func kernelShapes(n int) (fast, cube int) {
	m := n
	for {
		if s, err := bilinear.Pick(m); err == nil {
			fast = m / s.D
			break
		}
		m++
	}
	c := ccmm.CbrtCeil(n)
	return fast, c * c
}

// kernelValues times the three local kernels on the workload's block
// shapes: median milliseconds per call and Gop/s, counting 2·side³
// element operations (one multiply and one add, AND and OR, or add and
// min per term).
func kernelValues(n int, vals map[string]float64) {
	fast, cube := kernelShapes(n)
	rng := newRand(uint64(n), 7)
	ints := func(side int) *matrix.Dense[int64] {
		d := matrix.New[int64](side, side)
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				d.Set(i, j, rng.Int64N(16))
			}
		}
		return d
	}
	bits := func(side int) *matrix.BitDense {
		d := matrix.New[bool](side, side)
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				d.Set(i, j, rng.IntN(4) == 0)
			}
		}
		b := matrix.NewBitDense(side, side)
		matrix.PackDense(b, d)
		return b
	}
	a, b, out := ints(fast), ints(fast), matrix.New[int64](fast, fast)
	timeKernel("ParMulInto", fast, vals, func() { matrix.ParMulInto(nil, ring.Int64{}, out, a, b) })
	ma, mb, mout := ints(cube), ints(cube), matrix.New[int64](cube, cube)
	timeKernel("MulMinPlusInto", cube, vals, func() { matrix.MulMinPlusInto(mout, ma, mb) })
	ba, bb, bout := bits(cube), bits(cube), matrix.NewBitDense(cube, cube)
	timeKernel("MulBitInto", cube, vals, func() { matrix.MulBitInto(bout, ba, bb) })
}

// timeKernel runs f in batches for about 150ms and records the median
// batch's per-call time.
func timeKernel(name string, side int, vals map[string]float64, f func()) {
	f() // warm caches and pools
	per := 1
	for {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			f()
		}
		if time.Since(t0) >= 5*time.Millisecond {
			break
		}
		per *= 2
	}
	var samples []float64
	deadline := time.Now().Add(150 * time.Millisecond)
	for len(samples) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			f()
		}
		samples = append(samples, float64(time.Since(t0))/1e6/float64(per))
	}
	ms := medianOf(samples)
	vals["matrix."+name+".ms"] = ms
	s := float64(side)
	vals["matrix."+name+".gops"] = 2 * s * s * s / (ms * 1e6)
}
