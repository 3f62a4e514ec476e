package main

import (
	"fmt"
	"math"
	"slices"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
)

// csrN is the csr-square clique size: far above the densification cap, so
// a dense fallback would error rather than allocate n² state.
const csrN = 10000

// gnpCSR draws an undirected GNP(n, deg/n) adjacency straight into CSR
// form by geometric skip sampling: Θ(n + nnz) work and memory, never a
// dense row. Val stays nil, the adjacency encoding.
func gnpCSR(n int, deg float64, seed uint64) *cc.CSR {
	rng := newRand(seed, 2)
	p := deg / float64(n)
	adj := make([][]int32, n)
	logq := math.Log1p(-p)
	for u := 0; u < n; u++ {
		// Skip ahead Geometric(p) positions to each next edge v > u.
		for v := u + 1 + int(math.Log(1-rng.Float64())/logq); v < n; v += 1 + int(math.Log(1-rng.Float64())/logq) {
			adj[u] = append(adj[u], int32(v))
			adj[v] = append(adj[v], int32(u))
		}
	}
	m := &cc.CSR{N: n, RowPtr: make([]int64, n+1)}
	for u, row := range adj {
		slices.Sort(row)
		m.Col = append(m.Col, row...)
		m.RowPtr[u+1] = int64(len(m.Col))
	}
	return m
}

// squareCSRRef is the oracle: A² by scattering each row's 2-walks into a
// length-n accumulator, O(Σ deg²) work, never an n×n matrix.
func squareCSRRef(a *cc.CSR) *cc.CSR {
	n := a.N
	acc := make([]int64, n)
	var touched []int32
	out := &cc.CSR{N: n, RowPtr: make([]int64, n+1)}
	for u := 0; u < n; u++ {
		touched = touched[:0]
		for _, k := range a.Col[a.RowPtr[u]:a.RowPtr[u+1]] {
			for _, j := range a.Col[a.RowPtr[k]:a.RowPtr[k+1]] {
				if acc[j] == 0 {
					touched = append(touched, j)
				}
				acc[j]++
			}
		}
		slices.Sort(touched)
		for _, j := range touched {
			out.Col = append(out.Col, j)
			out.Val = append(out.Val, acc[j])
			acc[j] = 0
		}
		out.RowPtr[u+1] = int64(len(out.Col))
	}
	return out
}

// sameCSR reports the first difference between a product and its
// reference (a nil Val stores all ones).
func sameCSR(got, want *cc.CSR) error {
	if got.N != want.N || len(got.RowPtr) != len(want.RowPtr) {
		return fmt.Errorf("shape %d/%d, want %d/%d", got.N, len(got.RowPtr), want.N, len(want.RowPtr))
	}
	if !slices.Equal(got.RowPtr, want.RowPtr) {
		return fmt.Errorf("row pointers differ (nnz %d, want %d)", got.NNZ(), want.NNZ())
	}
	if !slices.Equal(got.Col, want.Col) {
		return fmt.Errorf("column indices differ")
	}
	for i, w := range want.Val {
		g := int64(1)
		if got.Val != nil {
			g = got.Val[i]
		}
		if g != w {
			return fmt.Errorf("value %d at entry %d, want %d", g, i, w)
		}
	}
	return nil
}

// csrOps alternates the two seeded adjacencies' squares.
func csrOps(seed uint64) []sessionOp {
	var ops []sessionOp
	for i, deg := range []float64{2, 8} {
		a := gnpCSR(csrN, deg, seed^uint64(0x100*(i+1)))
		want := squareCSRRef(a)
		ops = append(ops, sessionOp{
			method: "SquareAdjacencyCSR",
			call: func(s *cc.Clique) (any, cc.Stats, error) {
				p, st, err := s.SquareAdjacencyCSR(a)
				return p, st, err
			},
			check: func(out any) error {
				p := out.(cc.CSRProduct)
				if !p.IsSparse() {
					return fmt.Errorf("GNP(%d, %g/n) square came back dense", csrN, deg)
				}
				return sameCSR(p.Sparse, want)
			},
			layer: "ccmm.MulIntCSRRouted",
			prepare: func(n int) func(*clique.Network, *ccmm.Scratch) error {
				// Padding appends empty rows.
				rp := slices.Clip(a.RowPtr)
				for len(rp) < n+1 {
					rp = append(rp, rp[len(rp)-1])
				}
				pa := &matrix.CSR[int64]{N: n, RowPtr: rp, Col: a.Col, Val: a.Val}
				return func(net *clique.Network, sc *ccmm.Scratch) error {
					_, _, err := ccmm.PlanSparse(n, ccmm.EngineAuto, ccmm.DefaultSparseThreshold).MulIntCSRRouted(net, sc, pa, pa)
					return err
				}
			},
		})
	}
	return ops
}

// runCSRSquare is the csr-square workload.
func runCSRSquare(cfg config, r *run, vals map[string]float64) error {
	ops := csrOps(cfg.seed)
	dense0 := ccmm.DenseAllocs()
	defer func() {
		if d := ccmm.DenseAllocs() - dense0; d != 0 {
			r.fail("csr-square allocated %d dense matrices", d)
		}
	}()
	build := func() (*cc.Clique, error) { return cc.NewClique(csrN) }
	if _, err := r.closedRun(cfg, build, ops, 2, vals); err != nil || !cfg.trace {
		return err
	}
	kernelValues(csrN, vals)
	return nil
}
