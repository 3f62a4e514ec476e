package main

import (
	"errors"
	"fmt"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/distance"
	"github.com/algebraic-clique/algclique/internal/girth"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/subgraph"
)

// table1N is a perfect square and not a cube: the bilinear (Fast) engine
// runs unpadded and the 3D engine on a padded cube layout.
const table1N = 256

// table1Ops builds the seeded table1-dense pass: the Table 1 rows on one
// n=256 session, with every reference computed here, outside the timed
// region.
func table1Ops(seed uint64) ([]sessionOp, error) {
	n := table1N
	rng := newRand(seed, 1)
	intA := randMat(rng, n, 1, 0, func() int64 { return rng.Int64N(16) })
	intB := randMat(rng, n, 1, 0, func() int64 { return rng.Int64N(16) })
	boolA := randMat(rng, n, 0.25, 0, func() int64 { return 1 })
	boolB := randMat(rng, n, 0.25, 0, func() int64 { return 1 })
	distA := randMat(rng, n, 0.5, cc.Inf, func() int64 { return rng.Int64N(100) })
	distB := randMat(rng, n, 0.5, cc.Inf, func() int64 { return rng.Int64N(100) })
	dense := graphs.GNP(n, 0.2, false, seed^0x11)
	sparse := graphs.GNP(n, 0.03, false, seed^0x22)
	weighted := graphs.RandomConnectedWeighted(n, 0.05, 100, true, seed^0x33)
	// A directed GNP(n, 2/n) has a 2-cycle on most seeds but not all, and
	// Girth's cost jumps with the girth; one planted 2-cycle makes the
	// girth 2 on every seed.
	digraph := graphs.GNP(n, 2.0/float64(n), true, seed^0x44)
	u := rng.IntN(n)
	v := (u + 1 + rng.IntN(n-1)) % n
	digraph.AddEdge(u, v)
	digraph.AddEdge(v, u)

	wantMul, wantBool, wantDist := refMulInt(intA, intB), refMulBool(boolA, boolB), refMinPlus(distA, distB)
	wantTri, wantC4 := graphs.CountTrianglesRef(dense), graphs.CountC4Ref(dense)
	wantBFS := graphs.BFSAllPairs(sparse)
	wantAPSP, err := graphs.FloydWarshall(weighted)
	if err != nil {
		return nil, err
	}
	wantGirth, wantCyclic := graphs.GirthRef(digraph)

	plan := func(n int) *ccmm.Plan { return ccmm.PlanSparse(n, ccmm.EngineAuto, ccmm.DefaultSparseThreshold) }
	product := func(method, layer string, a, b cc.Mat, zero int64, want *matrix.Dense[int64],
		mul func(s *cc.Clique, a, b cc.Mat) (cc.Mat, cc.Stats, error),
		drv func(p *ccmm.Plan, net *clique.Network, sc *ccmm.Scratch, a, b *ccmm.RowMat[int64]) (*ccmm.RowMat[int64], ccmm.Route, error)) sessionOp {
		return sessionOp{
			method: method,
			call: func(s *cc.Clique) (any, cc.Stats, error) {
				m, st, err := mul(s, a, b)
				return m, st, err
			},
			check: matCheck(want),
			layer: layer,
			prepare: func(n int) func(*clique.Network, *ccmm.Scratch) error {
				pa, pb := rowMat(a, n, zero), rowMat(b, n, zero)
				return func(net *clique.Network, sc *ccmm.Scratch) error {
					_, _, err := drv(plan(n), net, sc, pa, pb)
					return err
				}
			},
		}
	}
	return []sessionOp{
		product("MatMul", "ccmm.MulIntRouted", intA, intB, 0, wantMul,
			func(s *cc.Clique, a, b cc.Mat) (cc.Mat, cc.Stats, error) { return s.MatMul(a, b) },
			(*ccmm.Plan).MulIntRouted),
		product("MatMulBool", "ccmm.MulBoolRouted", boolA, boolB, 0, wantBool,
			func(s *cc.Clique, a, b cc.Mat) (cc.Mat, cc.Stats, error) { return s.MatMulBool(a, b) },
			(*ccmm.Plan).MulBoolRouted),
		product("DistanceProduct", "ccmm.MulMinPlusRouted", distA, distB, cc.Inf, wantDist,
			func(s *cc.Clique, a, b cc.Mat) (cc.Mat, cc.Stats, error) { return s.DistanceProduct(a, b) },
			(*ccmm.Plan).MulMinPlusRouted),
		{
			method: "CountTriangles",
			call: func(s *cc.Clique) (any, cc.Stats, error) {
				c, st, err := s.CountTriangles(dense)
				return c, st, err
			},
			check: countCheck(wantTri),
			layer: "driver.CountTriangles",
			prepare: graphDriver(dense, func(net *clique.Network, g *graphs.Graph) error {
				_, err := subgraph.CountTriangles(net, ccmm.EngineAuto, g)
				return err
			}),
		},
		{
			method: "CountFourCycles",
			call: func(s *cc.Clique) (any, cc.Stats, error) {
				c, st, err := s.CountFourCycles(dense)
				return c, st, err
			},
			check: countCheck(wantC4),
			layer: "driver.CountC4",
			prepare: graphDriver(dense, func(net *clique.Network, g *graphs.Graph) error {
				_, err := subgraph.CountC4(net, ccmm.EngineAuto, g)
				return err
			}),
		},
		{
			method: "APSPUnweighted",
			call: func(s *cc.Clique) (any, cc.Stats, error) {
				res, st, err := s.APSPUnweighted(sparse)
				if err != nil {
					return nil, st, err
				}
				return res.Dist, st, nil
			},
			check: matCheck(wantBFS),
			layer: "driver.APSPSeidel",
			prepare: graphDriver(sparse, func(net *clique.Network, g *graphs.Graph) error {
				_, err := distance.APSPSeidel(net, ccmm.EngineAuto, g)
				return err
			}),
		},
		{
			method: "APSP",
			call: func(s *cc.Clique) (any, cc.Stats, error) {
				res, st, err := s.APSP(weighted)
				return res, st, err
			},
			check: func(out any) error {
				res := out.(*cc.APSPResult)
				if err := sameMat(res.Dist, wantAPSP); err != nil {
					return err
				}
				if res.Next == nil {
					return errors.New("no routing table")
				}
				return cc.ValidateRouting(weighted, res)
			},
			layer: "driver.APSPSemiring",
			prepare: func(n int) func(*clique.Network, *ccmm.Scratch) error {
				g := padWeighted(weighted, n)
				return func(net *clique.Network, _ *ccmm.Scratch) error {
					_, err := distance.APSPSemiring(net, g)
					return err
				}
			},
		},
		{
			method: "Girth",
			call: func(s *cc.Clique) (any, cc.Stats, error) {
				g, ok, st, err := s.Girth(digraph)
				return [2]any{g, ok}, st, err
			},
			check: func(out any) error {
				got := out.([2]any)
				if got[0].(int) != wantGirth || got[1].(bool) != wantCyclic {
					return fmt.Errorf("girth (%v, %v), want (%d, %v)", got[0], got[1], wantGirth, wantCyclic)
				}
				return nil
			},
			layer: "driver.GirthDirected",
			prepare: graphDriver(digraph, func(net *clique.Network, g *graphs.Graph) error {
				_, _, err := girth.Directed(net, ccmm.EngineAuto, g)
				return err
			}),
		},
	}, nil
}

// matCheck compares a matrix output with its reference.
func matCheck(want *matrix.Dense[int64]) func(any) error {
	return func(out any) error {
		got, _ := out.(cc.Mat)
		return sameMat(got, want)
	}
}

func countCheck(want int64) func(any) error {
	return func(out any) error {
		if got := out.(int64); got != want {
			return fmt.Errorf("count %d, want %d", got, want)
		}
		return nil
	}
}

// graphDriver prepares a driver call on g padded to the clique size.
func graphDriver(g *graphs.Graph, f func(*clique.Network, *graphs.Graph) error) func(int) func(*clique.Network, *ccmm.Scratch) error {
	return func(n int) func(*clique.Network, *ccmm.Scratch) error {
		pg := padGraph(g, n)
		return func(net *clique.Network, _ *ccmm.Scratch) error { return f(net, pg) }
	}
}

// runTable1 is the table1-dense workload.
func runTable1(cfg config, r *run, vals map[string]float64) error {
	ops, err := table1Ops(cfg.seed)
	if err != nil {
		return err
	}
	build := func() (*cc.Clique, error) { return cc.NewClique(table1N) }
	loop, err := r.closedRun(cfg, build, ops, 3, vals)
	if err != nil || !cfg.trace {
		return err
	}
	kernelValues(table1N, vals)
	direct := durMedian(loop.passDur)
	for _, v := range []struct {
		name string
		opt  cc.SessionOption
	}{{"transport.wire_over_direct", cc.WithWireTransport()}, {"clique.workers1_over_default", cc.WithWorkers(1)}} {
		alt, err := cc.NewClique(table1N, v.opt)
		if err != nil {
			return err
		}
		r.runPass(alt, ops, nil) // warm the alternative session
		vals[v.name] = float64(r.runPass(alt, ops, nil).calls) / 1e6 / direct
		alt.Close()
	}
	return nil
}
