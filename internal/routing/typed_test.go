package routing

import (
	"reflect"
	"testing"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// underCodec declares one word less per message than its encoding
// actually occupies: the cost closure a typed exchange must not trust on
// the wire plane.
type underCodec struct{ ring.Int64 }

func (underCodec) EncodedLen(count int) int { return count - 1 }

// TestTransportWireChargesEncodedWords pins that the wire plane charges
// the words its encodings put on the links, never the codec's declared
// length: with an under-declaring codec the direct ledger (which trusts
// the declaration) and the wire ledger must differ by exactly the missing
// word per non-self message, while both deliver the same messages.
func TestTransportWireChargesEncodedWords(t *testing.T) {
	const n = 6
	pays := make([][][]int64, n)
	for src := range pays {
		pays[src] = make([][]int64, n)
		for dst := range pays[src] {
			if src != dst {
				pays[src][dst] = []int64{int64(src), int64(dst), int64(src * dst)}
			}
		}
	}
	sends := map[string]func(net *clique.Network) [][][]int64{
		"exchange": func(net *clique.Network) [][][]int64 {
			return ExchangePayload(net, Direct, NewScratch(), pays, underCodec{}, newMatrix[int64](n))
		},
		"post": func(net *clique.Network) [][][]int64 {
			post := NewPost(net, Codec[int64](underCodec{}))
			for src := range pays {
				for dst := range pays[src] {
					if len(pays[src][dst]) > 0 {
						post.Send(src, dst, &pays[src][dst])
					}
				}
			}
			got := post.Flush()
			in := newMatrix[int64](n)
			for dst := range in {
				got.Each(dst, func(src int, msg []int64) { in[dst][src] = msg })
			}
			return in
		},
	}
	for name, send := range sends {
		run := func(tr clique.Transport) ([][][]int64, clique.Stats) {
			net := clique.New(n, clique.WithTransport(tr))
			defer net.Close()
			return send(net), net.Stats()
		}
		din, dst := run(clique.TransportDirect)
		win, wst := run(clique.TransportWire)
		if !reflect.DeepEqual(din, win) {
			t.Fatalf("%s: the planes delivered different messages", name)
		}
		if reflect.DeepEqual(dst, wst) {
			t.Fatalf("%s: wire ledger %+v echoes the declared cost", name, wst)
		}
		if got, want := wst.Words-dst.Words, int64(n*(n-1)); got != want {
			t.Fatalf("%s: wire charged %d words over the declaration, want %d", name, got, want)
		}
	}
}

func newMatrix[T any](n int) [][][]T {
	m := make([][][]T, n)
	for i := range m {
		m[i] = make([][]T, n)
	}
	return m
}
