package ccmm

import (
	"errors"
	"fmt"
	"reflect"

	"github.com/algebraic-clique/algclique/internal/clique"
)

// Each engine is written once: it builds typed messages and hands them,
// with their codec, to the routing layer's typed primitives
// (routing.ExchangePayload, routing.ExchangeVirtual,
// routing.AllGatherPayload, routing.Post). Whether those messages travel
// by reference with their words charged from the codec (the direct plane)
// or are encoded, routed as real words, and decoded (the wire plane) is a
// property of the network, decided inside the routing layer. The one
// transport decision left in this package is verified: under
// TransportVerify it runs the product a second time on a wire shadow and
// diffs the results and the ledgers, which is the executable proof that
// the declared costs match the words the encodings actually occupy.

// ErrTransportDiverged reports that the direct and wire transports
// disagreed on a product's result or accounting under TransportVerify —
// a simulator bug, never an input error.
var ErrTransportDiverged = errors.New("ccmm: direct and wire transports diverged")

// verified runs one product. On a TransportVerify network it runs it on
// net — the direct plane, with the caller's scratch — and again on a fresh
// wire shadow clique of the same size with its own transient scratch, and
// returns the first result only if both the results and the charged
// rounds/words/flushes/phases agree. Every other network runs it once.
func verified[R any](net *clique.Network, sc *Scratch, run func(net *clique.Network, sc *Scratch) (R, error)) (R, error) {
	if net.Transport() != clique.TransportVerify {
		return run(net, sc)
	}
	var none R
	before := net.Stats()
	p, err := run(net, sc)
	if err != nil {
		return none, err
	}
	shadow := clique.New(net.N(), clique.WithTransport(clique.TransportWire))
	defer shadow.Close()
	q, err := run(shadow, nil)
	if err != nil {
		return none, fmt.Errorf("ccmm: wire shadow run failed: %w", err)
	}
	if err := diffLedger(before, net.Stats(), shadow.Stats()); err != nil {
		return none, err
	}
	if !reflect.DeepEqual(p, q) {
		return none, fmt.Errorf("%w: products differ", ErrTransportDiverged)
	}
	return p, nil
}

// diffLedger compares the direct run's accounting delta (after − before on
// the main network) against the wire shadow's full ledger.
func diffLedger(before, after, wire clique.Stats) error {
	if d, w := after.Rounds-before.Rounds, wire.Rounds; d != w {
		return fmt.Errorf("%w: rounds %d (direct) != %d (wire)", ErrTransportDiverged, d, w)
	}
	if d, w := after.Words-before.Words, wire.Words; d != w {
		return fmt.Errorf("%w: words %d (direct) != %d (wire)", ErrTransportDiverged, d, w)
	}
	if d, w := after.Flushes-before.Flushes, wire.Flushes; d != w {
		return fmt.Errorf("%w: flushes %d (direct) != %d (wire)", ErrTransportDiverged, d, w)
	}
	dp := after.Phases[len(before.Phases):]
	if len(dp) != len(wire.Phases) {
		return fmt.Errorf("%w: %d phases (direct) != %d (wire)", ErrTransportDiverged, len(dp), len(wire.Phases))
	}
	for i := range dp {
		if dp[i] != wire.Phases[i] {
			return fmt.Errorf("%w: phase %q %+v (direct) != %+v (wire)", ErrTransportDiverged, dp[i].Name, dp[i], wire.Phases[i])
		}
	}
	return nil
}
