package main

import (
	"fmt"
	"math/rand/v2"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/matrix"
)

// newRand is the benchmark's seeded generator; stream separates the
// independent draws of one seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x5851f42d4c957f2d^stream))
}

// randMat draws an n×n matrix: each entry is draw() with probability p,
// zero otherwise.
func randMat(rng *rand.Rand, n int, p float64, zero int64, draw func() int64) cc.Mat {
	m := make(cc.Mat, n)
	for i := range m {
		m[i] = make([]int64, n)
		for j := range m[i] {
			if rng.Float64() < p {
				m[i][j] = draw()
			} else {
				m[i][j] = zero
			}
		}
	}
	return m
}

// rowMat pads rows to an n×n distributed operand, filling with zero.
func rowMat(rows cc.Mat, n int, zero int64) *ccmm.RowMat[int64] {
	m := &ccmm.RowMat[int64]{Rows: make([][]int64, n)}
	for v := range m.Rows {
		row := make([]int64, n)
		for j := range row {
			row[j] = zero
		}
		if v < len(rows) {
			copy(row, rows[v])
		}
		m.Rows[v] = row
	}
	return m
}

// padGraph adds isolated nodes up to n.
func padGraph(g *graphs.Graph, n int) *graphs.Graph {
	if g.N() == n {
		return g
	}
	p := graphs.NewGraph(n, g.Directed())
	for u := 0; u < g.N(); u++ {
		g.Row(u).ForEach(func(v int) { p.AddEdge(u, v) })
	}
	return p
}

// padWeighted adds isolated nodes up to n.
func padWeighted(g *graphs.Weighted, n int) *graphs.Weighted {
	if g.N() == n {
		return g
	}
	p := graphs.NewWeighted(n, g.Directed())
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u != v && g.HasEdge(u, v) {
				p.SetEdge(u, v, g.Weight(u, v))
			}
		}
	}
	return p
}

// weightedFromMat builds the directed weighted graph of a weight matrix
// (Inf = no edge, diagonal ignored).
func weightedFromMat(a cc.Mat) *graphs.Weighted {
	g := graphs.NewWeighted(len(a), true)
	for i := range a {
		for j := range a[i] {
			if i != j && !cc.IsInf(a[i][j]) {
				g.SetEdge(i, j, a[i][j])
			}
		}
	}
	return g
}

// adjacency is a graph's 0/1 adjacency matrix.
func adjacency(g *graphs.Graph) cc.Mat {
	n := g.N()
	m := make(cc.Mat, n)
	for u := range m {
		m[u] = make([]int64, n)
		g.Row(u).ForEach(func(v int) { m[u][v] = 1 })
	}
	return m
}

func denseOf(rows cc.Mat) *matrix.Dense[int64] { return matrix.FromRows(rows) }

// sameMat reports the first entry where got differs from want.
func sameMat(got cc.Mat, want *matrix.Dense[int64]) error {
	if len(got) != want.Rows() {
		return fmt.Errorf("%d rows, want %d", len(got), want.Rows())
	}
	for i, row := range got {
		if len(row) != want.Cols() {
			return fmt.Errorf("row %d has %d entries, want %d", i, len(row), want.Cols())
		}
		for j, x := range row {
			if w := want.At(i, j); x != w {
				return fmt.Errorf("entry [%d][%d] = %d, want %d", i, j, x, w)
			}
		}
	}
	return nil
}

// refMulInt is the plain triple-loop integer product.
func refMulInt(a, b cc.Mat) *matrix.Dense[int64] {
	n := len(a)
	out := matrix.New[int64](n, n)
	for i := 0; i < n; i++ {
		row := out.Row(i)
		for k := 0; k < n; k++ {
			aik := a[i][k]
			if aik == 0 {
				continue
			}
			for j, bkj := range b[k] {
				row[j] += aik * bkj
			}
		}
	}
	return out
}

// refMulBool is the scalar Boolean reference kernel on 0/1 matrices.
func refMulBool(a, b cc.Mat) *matrix.Dense[int64] {
	toBool := func(m cc.Mat) *matrix.Dense[bool] {
		d := matrix.New[bool](len(m), len(m))
		for i, row := range m {
			for j, x := range row {
				d.Set(i, j, x != 0)
			}
		}
		return d
	}
	n := len(a)
	p := matrix.New[bool](n, n)
	matrix.MulBoolScalarInto(p, toBool(a), toBool(b))
	out := matrix.New[int64](n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if p.At(i, j) {
				out.Set(i, j, 1)
			}
		}
	}
	return out
}

// refMinPlus is the min-plus reference kernel.
func refMinPlus(a, b cc.Mat) *matrix.Dense[int64] {
	n := len(a)
	out := matrix.New[int64](n, n)
	matrix.MulMinPlusRefInto(out, denseOf(a), denseOf(b))
	return out
}
