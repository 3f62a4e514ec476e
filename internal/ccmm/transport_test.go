package ccmm

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// The differential tests are the transport contract: each engine has one
// body, and the routing layer either moves its typed messages by
// reference with their codec-declared word counts (direct) or encodes
// them and charges the words actually queued (wire). For every shipped
// algebra and engine the two must produce bit-identical products AND a
// bit-identical ledger — rounds, words, flushes, per-phase breakdown.

// mulOn runs one product on a fresh network with the given transport and
// returns the product plus the full accounting snapshot.
func mulOn[T any](t *testing.T, n int, tr clique.Transport,
	mul func(net *clique.Network, sc *Scratch) (*RowMat[T], error)) (*RowMat[T], clique.Stats) {
	t.Helper()
	net := clique.New(n, clique.WithTransport(tr))
	defer net.Close()
	p, err := mul(net, NewScratch())
	if err != nil {
		t.Fatalf("transport %v on n=%d: %v", tr, n, err)
	}
	return p, net.Stats()
}

// diffTransports runs mul on both transports and requires identical
// products and ledgers.
func diffTransports[T any](t *testing.T, n int,
	mul func(net *clique.Network, sc *Scratch) (*RowMat[T], error)) {
	t.Helper()
	direct, dstats := mulOn[T](t, n, clique.TransportDirect, mul)
	wire, wstats := mulOn[T](t, n, clique.TransportWire, mul)
	if !reflect.DeepEqual(direct.Rows, wire.Rows) {
		t.Fatalf("n=%d: direct product differs from wire product", n)
	}
	if dstats.Rounds != wstats.Rounds || dstats.Words != wstats.Words || dstats.Flushes != wstats.Flushes {
		t.Fatalf("n=%d: ledger diverged: direct rounds/words/flushes %d/%d/%d, wire %d/%d/%d",
			n, dstats.Rounds, dstats.Words, dstats.Flushes, wstats.Rounds, wstats.Words, wstats.Flushes)
	}
	if !reflect.DeepEqual(dstats.Phases, wstats.Phases) {
		t.Fatalf("n=%d: per-phase ledgers diverged:\ndirect: %+v\nwire:   %+v", n, dstats.Phases, wstats.Phases)
	}
}

func randIntMat(rng *rand.Rand, n int, span int64) *RowMat[int64] {
	m := NewRowMat[int64](n)
	for v := range m.Rows {
		for j := range m.Rows[v] {
			m.Rows[v][j] = rng.Int64N(2*span) - span
		}
	}
	return m
}

func randMinPlusMat(rng *rand.Rand, n int) *RowMat[int64] {
	m := NewRowMat[int64](n)
	for v := range m.Rows {
		for j := range m.Rows[v] {
			switch rng.IntN(5) {
			case 0:
				m.Rows[v][j] = ring.Inf
			case 1:
				m.Rows[v][j] = -rng.Int64N(50) // negative weights are supported
			default:
				m.Rows[v][j] = rng.Int64N(100)
			}
		}
	}
	return m
}

func randValWMat(rng *rand.Rand, n int) *RowMat[ring.ValW] {
	m := NewRowMat[ring.ValW](n)
	for v := range m.Rows {
		for j := range m.Rows[v] {
			if rng.IntN(4) == 0 {
				m.Rows[v][j] = ring.ValW{V: ring.Inf, W: ring.NoWitness}
			} else {
				m.Rows[v][j] = ring.ValW{V: rng.Int64N(100), W: int64(rng.IntN(n))}
			}
		}
	}
	return m
}

func randBoolMat(rng *rand.Rand, n int) *RowMat[bool] {
	m := NewRowMat[bool](n)
	for v := range m.Rows {
		for j := range m.Rows[v] {
			m.Rows[v][j] = rng.IntN(3) == 0
		}
	}
	return m
}

// diffSizes samples the awkward range 2..100: primes, powers, perfect
// cubes and squares, and both neighbours of cube boundaries.
var diffSizes = []int{2, 3, 5, 7, 8, 9, 13, 26, 27, 28, 36, 50, 64, 81, 100}

// semiringEngines are the two engines every semiring algebra runs on.
func semiringEngines[T any](sr ring.Semiring[T], codec ring.Codec[T], s, t *RowMat[T]) map[string]func(net *clique.Network, sc *Scratch) (*RowMat[T], error) {
	return map[string]func(net *clique.Network, sc *Scratch) (*RowMat[T], error){
		"naive": func(net *clique.Network, sc *Scratch) (*RowMat[T], error) {
			return NaiveGather[T](net, sc, sr, codec, s, t)
		},
		"3d": func(net *clique.Network, sc *Scratch) (*RowMat[T], error) {
			return Semiring3D[T](net, sc, sr, codec, s, t)
		},
	}
}

func TestTransportDifferentialInt64(t *testing.T) {
	for _, n := range diffSizes {
		rng := rand.New(rand.NewPCG(41, uint64(n)))
		s, u := randIntMat(rng, n, 50), randIntMat(rng, n, 50)
		r := ring.Int64{}
		for name, mul := range semiringEngines[int64](r, r, s, u) {
			t.Run(name, func(t *testing.T) { diffTransports[int64](t, n, mul) })
		}
	}
}

func TestTransportDifferentialMinPlus(t *testing.T) {
	for _, n := range diffSizes {
		rng := rand.New(rand.NewPCG(42, uint64(n)))
		s, u := randMinPlusMat(rng, n), randMinPlusMat(rng, n)
		mp := ring.MinPlus{}
		for name, mul := range semiringEngines[int64](mp, mp, s, u) {
			t.Run(name, func(t *testing.T) { diffTransports[int64](t, n, mul) })
		}
	}
}

func TestTransportDifferentialMinPlusW(t *testing.T) {
	for _, n := range diffSizes {
		rng := rand.New(rand.NewPCG(43, uint64(n)))
		s, u := randValWMat(rng, n), randValWMat(rng, n)
		mw := ring.MinPlusW{}
		for name, mul := range semiringEngines[ring.ValW](mw, mw, s, u) {
			t.Run(name, func(t *testing.T) { diffTransports[ring.ValW](t, n, mul) })
		}
	}
}

func TestTransportDifferentialZp(t *testing.T) {
	z := ring.NewZp(1009)
	for _, n := range diffSizes {
		rng := rand.New(rand.NewPCG(44, uint64(n)))
		s, u := NewRowMat[int64](n), NewRowMat[int64](n)
		for v := 0; v < n; v++ {
			for j := 0; j < n; j++ {
				s.Rows[v][j] = rng.Int64N(z.Modulus())
				u.Rows[v][j] = rng.Int64N(z.Modulus())
			}
		}
		for name, mul := range semiringEngines[int64](z, z, s, u) {
			t.Run(name, func(t *testing.T) { diffTransports[int64](t, n, mul) })
		}
	}
}

func TestTransportDifferentialBool(t *testing.T) {
	br := ring.Bool{}
	for _, n := range diffSizes {
		rng := rand.New(rand.NewPCG(45, uint64(n)))
		s, u := randBoolMat(rng, n), randBoolMat(rng, n)
		for _, codec := range []struct {
			name string
			c    ring.BulkCodec[bool]
		}{{"unpacked", ring.AsBulk[bool](br)}, {"packed", ring.PackedBool{}}} {
			for name, mul := range semiringEngines[bool](br, codec.c, s, u) {
				t.Run(codec.name+"/"+name, func(t *testing.T) { diffTransports[bool](t, n, mul) })
			}
		}
	}
}

func TestTransportDifferentialFastBilinear(t *testing.T) {
	r := ring.Int64{}
	z := ring.NewZp(1009)
	for _, n := range []int{16, 36, 64, 100} {
		rng := rand.New(rand.NewPCG(46, uint64(n)))
		s, u := randIntMat(rng, n, 20), randIntMat(rng, n, 20)
		t.Run("int64", func(t *testing.T) {
			diffTransports[int64](t, n, func(net *clique.Network, sc *Scratch) (*RowMat[int64], error) {
				return FastBilinear[int64](net, sc, r, r, nil, s, u)
			})
		})
		sz, uz := NewRowMat[int64](n), NewRowMat[int64](n)
		for v := 0; v < n; v++ {
			for j := 0; j < n; j++ {
				sz.Rows[v][j] = rng.Int64N(z.Modulus())
				uz.Rows[v][j] = rng.Int64N(z.Modulus())
			}
		}
		t.Run("zp", func(t *testing.T) {
			diffTransports[int64](t, n, func(net *clique.Network, sc *Scratch) (*RowMat[int64], error) {
				return FastBilinear[int64](net, sc, z, z, nil, sz, uz)
			})
		})
	}
}

func TestTransportDifferentialWitnessProduct(t *testing.T) {
	for _, n := range []int{5, 27, 50} {
		rng := rand.New(rand.NewPCG(47, uint64(n)))
		s, u := randMinPlusMat(rng, n), randMinPlusMat(rng, n)
		run := func(tr clique.Transport) (p, q *RowMat[int64], st clique.Stats) {
			net := clique.New(n, clique.WithTransport(tr))
			defer net.Close()
			p, q, err := DistanceProduct3D(net, NewScratch(), s, u)
			if err != nil {
				t.Fatalf("transport %v: %v", tr, err)
			}
			return p, q, net.Stats()
		}
		dp, dq, dst := run(clique.TransportDirect)
		wp, wq, wst := run(clique.TransportWire)
		if !reflect.DeepEqual(dp.Rows, wp.Rows) || !reflect.DeepEqual(dq.Rows, wq.Rows) {
			t.Fatalf("n=%d: witness distance product diverged between transports", n)
		}
		if !reflect.DeepEqual(dst, wst) {
			t.Fatalf("n=%d: witness product ledger diverged:\ndirect: %+v\nwire:   %+v", n, dst, wst)
		}
	}
}

// TestTransportDifferentialLarge pushes the differential to n = 512, where
// the 3D engine multiplexes a padded 8³ cube and the packed Boolean
// transport compresses 64×.
func TestTransportDifferentialLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("n=512 differential skipped in -short")
	}
	const n = 512
	rng := rand.New(rand.NewPCG(48, n))
	s, u := randIntMat(rng, n, 50), randIntMat(rng, n, 50)
	r := ring.Int64{}
	t.Run("3d/int64", func(t *testing.T) {
		diffTransports[int64](t, n, func(net *clique.Network, sc *Scratch) (*RowMat[int64], error) {
			return Semiring3D[int64](net, sc, r, r, s, u)
		})
	})
	sb, ub := randBoolMat(rng, n), randBoolMat(rng, n)
	t.Run("3d/packedbool", func(t *testing.T) {
		diffTransports[bool](t, n, func(net *clique.Network, sc *Scratch) (*RowMat[bool], error) {
			return Semiring3D[bool](net, sc, ring.Bool{}, ring.PackedBool{}, sb, ub)
		})
	})
}

// TestTransportVerifyMode exercises TransportVerify end to end: the
// dual-run must succeed on a healthy engine and charge only the direct
// run's cost on the caller's network.
func TestTransportVerifyMode(t *testing.T) {
	for _, n := range []int{9, 16, 27} {
		rng := rand.New(rand.NewPCG(49, uint64(n)))
		s, u := randIntMat(rng, n, 50), randIntMat(rng, n, 50)
		r := ring.Int64{}

		direct, dstats := mulOn[int64](t, n, clique.TransportDirect, func(net *clique.Network, sc *Scratch) (*RowMat[int64], error) {
			return Semiring3D[int64](net, sc, r, r, s, u)
		})
		verified, vstats := mulOn[int64](t, n, clique.TransportVerify, func(net *clique.Network, sc *Scratch) (*RowMat[int64], error) {
			return Semiring3D[int64](net, sc, r, r, s, u)
		})
		if !reflect.DeepEqual(direct.Rows, verified.Rows) {
			t.Fatalf("n=%d: verify-mode product differs from direct product", n)
		}
		if !reflect.DeepEqual(dstats, vstats) {
			t.Fatalf("n=%d: verify mode charged %+v, direct charged %+v", n, vstats, dstats)
		}
	}
}
