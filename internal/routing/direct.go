package routing

import (
	"fmt"
	"slices"

	"github.com/algebraic-clique/algclique/internal/clique"
)

// This file is the routing layer's analytic charging: the ledgers of the
// deterministic Exchange and AllGather schedules, computed from a traffic
// shape instead of materialised words. The typed primitives (typed.go)
// charge the direct plane through it, and every function here reproduces
// its encoded counterpart's ledger — rounds, words, flushes, strategy
// choice — exactly.

// TwoPhaseCosts reduces the two-phase schedule for the given traffic to
// its four charged aggregates: the non-self per-link load maximum and word
// total of each phase. The striping matches exchangeTwoPhase word for
// word — sender src's flat word stream rides links (off+p) mod n in
// order, so each phase-A link carries ⌊flat/n⌋ full laps plus one
// contiguous arc, reduced here to closed-form per-sender arithmetic —
// while phase B runs one O(n²) pass over a per-(intermediary,
// destination) tally. This is the single implementation of the Lenzen
// striping arithmetic: the encoded Auto resolution (estimateCosts), the
// direct transport's analytic charges, and the strategy decisions all
// read these aggregates, which is what keeps the two planes' ledgers and
// schedule choices bit-identical (the per-link reference implementation
// lives in the tests).
func TwoPhaseCosts(n int, sc *Scratch, lens LinkLens) (maxA, totalA, maxB, totalB int64) {
	var loadB []int64
	if sc != nil {
		loadB = sc.linkLoads(n * n)
	} else {
		loadB = make([]int64, n*n)
	}
	for src := 0; src < n; src++ {
		off := stripeOffset(src, n)
		var flat int64
		for dst := 0; dst < n; dst++ {
			l := lens(src, dst)
			if l == 0 {
				continue
			}
			laps := l / int64(n)
			rem := int(l % int64(n))
			if laps > 0 {
				for inter := 0; inter < n; inter++ {
					loadB[inter*n+dst] += laps
				}
			}
			start := (off + int(flat%int64(n))) % n
			for j := 0; j < rem; j++ {
				inter := start + j
				if inter >= n {
					inter -= n
				}
				loadB[inter*n+dst]++
			}
			flat += l
		}
		if flat > 0 && n > 1 {
			laps := flat / int64(n)
			rem := int(flat % int64(n))
			selfIdx := (src - off + n) % n
			selfLoad := laps
			if selfIdx < rem {
				selfLoad++
			}
			ma := laps
			if rem > 0 && (rem >= 2 || selfIdx != 0) {
				ma = laps + 1
			}
			if ma > maxA {
				maxA = ma
			}
			totalA += flat - selfLoad
		}
	}
	for inter := 0; inter < n; inter++ {
		row := loadB[inter*n : (inter+1)*n]
		for dst, w := range row {
			if inter == dst || w == 0 {
				continue
			}
			totalB += w
			if w > maxB {
				maxB = w
			}
		}
	}
	return maxA, totalA, maxB, totalB
}

// PlanCosts returns the charged aggregates of both schedules for a
// materialised lens array: the two-phase phase maxima and totals plus the
// direct schedule's non-self maximum. With a Scratch the result is
// memoised on the lens contents (see exchangePlan); the aggregates are a
// pure function of the lens array, so replayed oblivious patterns skip
// the striping arithmetic entirely.
func PlanCosts(n int, sc *Scratch, lensBuf []int64) (maxA, totalA, maxB, totalB, direct int64) {
	if sc != nil {
		for i := range sc.plans {
			p := &sc.plans[i]
			if slices.Equal(p.lens, lensBuf) {
				return p.maxA, p.totalA, p.maxB, p.totalB, p.direct
			}
		}
	}
	lens := func(src, dst int) int64 { return lensBuf[src*n+dst] }
	maxA, totalA, maxB, totalB = TwoPhaseCosts(n, sc, lens)
	for src := 0; src < n; src++ {
		base := src * n
		for dst := 0; dst < n; dst++ {
			if src != dst && lensBuf[base+dst] > direct {
				direct = lensBuf[base+dst]
			}
		}
	}
	if sc != nil {
		if len(sc.plans) >= maxExchangePlans {
			sc.plans = sc.plans[:0]
		}
		sc.plans = append(sc.plans, exchangePlan{
			lens: append([]int64(nil), lensBuf...),
			maxA: maxA, totalA: totalA, maxB: maxB, totalB: totalB, direct: direct,
		})
	}
	return maxA, totalA, maxB, totalB, direct
}

// ChargeAllGather charges the exact ledger of AllGather for per-node
// vector lengths lens: the counts broadcast (real — the counts are the
// words), the analytic spread flush, and the publish broadcast. The data
// plane is the callers' own vectors, which every receiver can read in
// place.
func ChargeAllGather(net *clique.Network, lens []int64) {
	n := net.N()
	if len(lens) != n {
		panic(fmt.Sprintf("routing: ChargeAllGather wants %d lengths, got %d", n, len(lens)))
	}
	counts := make([]clique.Word, n)
	var total int64
	for v, l := range lens {
		counts[v] = clique.Word(l)
		total += l
	}
	net.BroadcastWord(counts)
	if total == 0 {
		return
	}
	chunk := (total + int64(n) - 1) / int64(n)

	// Spread: sender v's words occupy global positions [pos, pos+l); the
	// words landing on holder h are the overlap with h's window
	// [h·chunk, (h+1)·chunk). Self-deliveries (h = v) are free, as in the
	// real flush.
	var pos, maxSpread, totalSpread int64
	for v, l := range lens {
		if l == 0 {
			continue
		}
		end := pos + l
		for h := int(pos / chunk); int64(h)*chunk < end && h < n; h++ {
			lo := int64(h) * chunk
			if pos > lo {
				lo = pos
			}
			hi := (int64(h) + 1) * chunk
			if end < hi {
				hi = end
			}
			if hi > lo && h != v {
				totalSpread += hi - lo
				if hi-lo > maxSpread {
					maxSpread = hi - lo
				}
			}
		}
		pos = end
	}
	net.FlushAnalytic(maxSpread, totalSpread)

	// Publish: each holder broadcasts its window.
	held := make([]int64, n)
	for h := 0; h < n; h++ {
		lo := int64(h) * chunk
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		if hi > lo {
			held[h] = hi - lo
		}
	}
	net.ChargeBroadcast(held)
}
