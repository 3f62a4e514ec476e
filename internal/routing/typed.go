package routing

import (
	"fmt"
	"slices"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// This file is the typed delivery layer every algorithm sends through.
// Callers hand algebra-typed messages to a primitive together with the
// codec that gives them a wire form; which plane carries them is a
// property of the network, decided here and nowhere else:
//
//   - on a direct network (the default, and the caller's side of
//     TransportVerify) the messages travel by reference and each one is
//     charged codec.EncodedLen words, through the same schedules and
//     strategy choices the encoded path takes;
//   - on a wire network every message is encoded, the words move through
//     the encoded routing (Lenzen striping, link queues, Flush) and are
//     decoded into fresh typed receive slices. The ledger is whatever the
//     queued words cost — never the codec's declared length — so the
//     differential tests and TransportVerify compare the declared cost
//     against a measured one.
//
// Receivers split and size messages from the senders' element counts,
// which the algorithms' oblivious schedules make globally computable
// (the out-of-band addressing convention of the package comment).

// Codec is the wire form of a typed message, in the shape of
// ring.BulkCodec (which satisfies it): EncodedLen(k) words for a
// k-element message, EncodeSlice appending exactly those words, and
// DecodeSlice reading len(out) elements back from the message's first
// word.
type Codec[T any] interface {
	EncodedLen(count int) int
	EncodeSlice(dst []clique.Word, vals []T) []clique.Word
	DecodeSlice(out []T, src []clique.Word)
}

// Chunked is the codec of messages made of whole size-element chunks,
// each encoded as one atomic chunk of c: a packing codec compresses chunk
// by chunk, exactly as the engines' chunk offsets assume, instead of
// running two block rows together into one bit field.
func Chunked[T any](c Codec[T], size int) Codec[T] { return chunked[T]{c: c, size: size} }

type chunked[T any] struct {
	c    Codec[T]
	size int
}

func (k chunked[T]) EncodedLen(count int) int { return count / k.size * k.c.EncodedLen(k.size) }

func (k chunked[T]) EncodeSlice(dst []clique.Word, vals []T) []clique.Word {
	for i := 0; i < len(vals); i += k.size {
		dst = k.c.EncodeSlice(dst, vals[i:i+k.size])
	}
	return dst
}

func (k chunked[T]) DecodeSlice(out []T, src []clique.Word) {
	w := k.c.EncodedLen(k.size)
	for i := 0; i < len(out); i += k.size {
		k.c.DecodeSlice(out[i:i+k.size], src)
		src = src[w:]
	}
}

// Tuples adapts a ring.TupleCodec to Codec: every message is one tuple
// chunk (index words, then the packed values).
func Tuples[T any](tc ring.TupleCodec[T]) Codec[ring.Tuple[T]] { return tuples[T]{tc} }

type tuples[T any] struct{ tc ring.TupleCodec[T] }

func (t tuples[T]) EncodedLen(count int) int { return t.tc.EncodedLen(count) }

func (t tuples[T]) EncodeSlice(dst []clique.Word, vals []ring.Tuple[T]) []clique.Word {
	dst, _ = t.tc.EncodeSlice(dst, vals, nil)
	return dst
}

func (t tuples[T]) DecodeSlice(out []ring.Tuple[T], src []clique.Word) {
	t.tc.DecodeSlice(out, src, nil)
}

// wire reports whether net materialises messages as words.
func wire(net *clique.Network) bool { return net.Transport() == clique.TransportWire }

// decodeMsg decodes a k-element message from ws into a fresh slice. A
// delivery shorter than the message (a link the fault plane withheld)
// decodes to nil: the receiver sees nothing, as it would on the direct
// plane.
func decodeMsg[T any](codec Codec[T], k int, ws []clique.Word) []T {
	if len(ws) < codec.EncodedLen(k) {
		return nil
	}
	out := make([]T, k)
	codec.DecodeSlice(out, ws)
	return out
}

// ExchangePayload is Exchange for typed messages: pays[src][dst] is the
// per-pair message, priced and (on a wire network) encoded by codec. The
// strategy choice, rounds, words, and flushes match Exchange on the
// encoded messages exactly. On a direct network the payloads move by
// reference, so the delivered slices alias the senders' buffers and are
// valid until the caller rebuilds them.
//
// in must be an n×n receive matrix; entries for addressed pairs are
// overwritten and all others left untouched, so a nil-cleared matrix
// reads idle pairs as empty — which is what lets dynamic patterns (the
// sparse engine's gather) use it. It is returned for convenience.
//
//cc:hotpath
func ExchangePayload[T any](net *clique.Network, strategy Strategy, sc *Scratch, pays [][][]T, codec Codec[T], in [][][]T) [][][]T {
	n := net.N()
	if len(pays) != n || len(in) != n {
		panic(fmt.Sprintf("routing: ExchangePayload wants %d×%d matrices, got %d and %d rows", n, n, len(pays), len(in)))
	}
	if wire(net) {
		return exchangeEncoded(net, strategy, sc, pays, codec, in)
	}
	// Materialise the analytic lens once; every subsequent pass — strategy
	// estimation, schedule loads, send charging — reads the flat array.
	var lensBuf []int64
	if sc != nil {
		lensBuf = sc.payLens(n * n)
	} else {
		lensBuf = make([]int64, n*n) //cc:hotalloc-ok(nil-scratch transient fallback)
	}
	for src := 0; src < n; src++ {
		row := pays[src]
		base := src * n
		for dst := range row {
			if l := len(row[dst]); l > 0 {
				lensBuf[base+dst] = int64(codec.EncodedLen(l))
			}
		}
	}
	twoPhase := strategy == TwoPhase
	var maxA, totalA, maxB, totalB int64
	if strategy != Direct {
		// Resolve Auto with the same comparison the encoded Exchange uses —
		// the direct round cost is the maximum non-self lens, the two-phase
		// cost the sum of the two schedule maxima — reusing the (memoised)
		// schedule aggregates for the charge itself.
		var direct int64
		maxA, totalA, maxB, totalB, direct = PlanCosts(n, sc, lensBuf)
		if strategy == Auto {
			twoPhase = maxA+maxB < direct
		}
	}
	var mail *clique.Mail
	if twoPhase {
		net.FlushAnalytic(maxA, totalA)
		for src := 0; src < n; src++ {
			row := pays[src]
			for dst := range row {
				if len(row[dst]) > 0 {
					net.SendPayload(src, dst, 0, &row[dst])
				}
			}
		}
		mail = net.FlushAnalytic(maxB, totalB)
	} else {
		for src := 0; src < n; src++ {
			row := pays[src]
			base := src * n
			for dst := range row {
				if len(row[dst]) > 0 {
					net.SendPayload(src, dst, lensBuf[base+dst], &row[dst])
				}
			}
		}
		mail = net.Flush()
	}
	for src := 0; src < n; src++ {
		for dst := range pays[src] {
			if len(pays[src][dst]) > 0 {
				in[dst][src] = *(mail.PayloadsFrom(dst, src)[0].(*[]T))
			}
		}
	}
	return in
}

// exchangeEncoded is ExchangePayload on a wire network: every message is
// encoded (one word buffer per sender), the words are routed by
// ExchangeScratch (real two-phase striping when the strategy resolves to
// it), and each addressed pair is decoded into a fresh per-receiver arena.
func exchangeEncoded[T any](net *clique.Network, strategy Strategy, sc *Scratch, pays [][][]T, codec Codec[T], in [][][]T) [][][]T {
	n := net.N()
	msgs := make([][][]clique.Word, n) //cc:hotalloc-ok(the wire plane materialises fresh encodings)
	net.ForEach(func(src int) {
		var buf []clique.Word
		ends := make([]int, n)
		for dst, msg := range pays[src] {
			if len(msg) > 0 {
				buf = codec.EncodeSlice(buf, msg)
			}
			ends[dst] = len(buf)
		}
		row, start := make([][]clique.Word, n), 0
		for dst, end := range ends {
			row[dst], start = buf[start:end], end
		}
		msgs[src] = row
	})
	got := ExchangeScratch(net, strategy, sc, msgs)
	net.ForEach(func(dst int) {
		total := 0
		for src := 0; src < n; src++ {
			total += len(pays[src][dst])
		}
		arena := make([]T, total)
		for src := 0; src < n; src++ {
			k := len(pays[src][dst])
			if k > 0 && len(got[dst][src]) >= codec.EncodedLen(k) {
				in[dst][src] = arena[:k:k]
				codec.DecodeSlice(in[dst][src], got[dst][src])
			}
			arena = arena[k:]
		}
	})
	return in
}

// ExchangeVirtual is ExchangePayload between vn ≥ n virtual nodes hosted
// round-robin on the real clique (virtual v on real node v mod n):
// vmsgs[v][u] travels from virtual node v to virtual node u. Pairs hosted
// on the same real node are delivered locally, by reference and free in
// the model like any self-send; the rest is multiplexed FIFO onto the real
// links in (virtual source, virtual destination) order and split apart at
// the receiver by the messages' lengths, which oblivious schedules fix
// from globally known parameters. The strategy is Auto over the per-link
// totals.
//
// vin must be a vn×vn receive matrix; entries for addressed pairs are
// overwritten and returned. On a direct network they alias the senders'
// messages.
//
//cc:hotpath
func ExchangeVirtual[T any](net *clique.Network, sc *Scratch, vmsgs [][][]T, codec Codec[T], vin [][][]T) [][][]T {
	if wire(net) {
		return exchangeVirtualEncoded(net, sc, vmsgs, codec, vin)
	}
	n := net.N()
	var loads []int64
	if sc != nil {
		loads = sc.payLens(n * n)
	} else {
		loads = make([]int64, n*n) //cc:hotalloc-ok(nil-scratch transient fallback)
	}
	for v := range vmsgs {
		rv := v % n
		for u, vec := range vmsgs[v] {
			if len(vec) > 0 && u%n != rv {
				loads[rv*n+u%n] += int64(codec.EncodedLen(len(vec)))
			}
		}
	}
	send := func(charged bool) {
		for v := range vmsgs {
			rv := v % n
			row := vmsgs[v]
			for u := range row {
				if len(row[u]) == 0 || u%n == rv {
					continue
				}
				var w int64
				if charged {
					w = int64(codec.EncodedLen(len(row[u])))
				}
				net.SendPayload(rv, u%n, w, &row[u])
			}
		}
	}
	maxA, totalA, maxB, totalB, direct := PlanCosts(n, sc, loads)
	var mail *clique.Mail
	if maxA+maxB < direct {
		// Both Lenzen phases are charged analytically; the payloads ride
		// the final flush with zero additional words.
		net.FlushAnalytic(maxA, totalA)
		send(false)
		mail = net.FlushAnalytic(maxB, totalB)
	} else {
		send(true)
		mail = net.Flush()
	}
	// The per-link delivery cursors reuse the load tally, which PlanCosts
	// has finished with.
	for i := range loads {
		loads[i] = 0
	}
	for v := range vmsgs {
		rv := v % n
		for u, vec := range vmsgs[v] {
			if len(vec) == 0 {
				continue
			}
			ru := u % n
			if ru == rv {
				vin[u][v] = vec
				continue
			}
			k := loads[rv*n+ru]
			vin[u][v] = *(mail.PayloadsFrom(ru, rv)[k].(*[]T))
			loads[rv*n+ru] = k + 1
		}
	}
	return vin
}

// exchangeVirtualEncoded is ExchangeVirtual on a wire network: each real
// link carries the concatenated encodings of its virtual messages through
// ExchangeScratch, and receivers cut the stream at the messages' encoded
// lengths.
func exchangeVirtualEncoded[T any](net *clique.Network, sc *Scratch, vmsgs [][][]T, codec Codec[T], vin [][][]T) [][][]T {
	n, vn := net.N(), len(vmsgs)
	msgs := make([][][]clique.Word, n) //cc:hotalloc-ok(the wire plane materialises fresh encodings)
	net.ForEach(func(rv int) {
		row := make([][]clique.Word, n)
		for v := rv; v < vn; v += n {
			for u, vec := range vmsgs[v] {
				if len(vec) > 0 && u%n != rv {
					row[u%n] = codec.EncodeSlice(row[u%n], vec)
				}
			}
		}
		msgs[rv] = row
	})
	got := ExchangeScratch(net, Auto, sc, msgs)
	net.ForEach(func(ru int) {
		offs := make([]int, n) // consumed words per source link
		for v := range vmsgs {
			rv := v % n
			for u := ru; u < vn; u += n {
				vec := vmsgs[v][u]
				if len(vec) == 0 {
					continue
				}
				if rv == ru {
					vin[u][v] = vec
					continue
				}
				w := codec.EncodedLen(len(vec))
				vin[u][v] = decodeMsg(codec, len(vec), got[ru][rv][offs[rv]:])
				offs[rv] += w
			}
		}
	})
	return vin
}

// AllGatherPayload makes every node learn every node's vector: AllGather
// for typed vectors. The result is indexed by origin node and read-only
// (all receivers share it). A direct network charges exactly AllGather's
// ledger for the encoded lengths and hands back vecs itself; a wire
// network gathers the encodings for real and decodes them.
func AllGatherPayload[T any](net *clique.Network, vecs [][]T, codec Codec[T]) [][]T {
	n := net.N()
	if len(vecs) != n {
		panic(fmt.Sprintf("routing: AllGatherPayload wants %d vectors, got %d", n, len(vecs)))
	}
	if !wire(net) {
		lens := make([]int64, n)
		for v, vec := range vecs {
			lens[v] = int64(codec.EncodedLen(len(vec)))
		}
		ChargeAllGather(net, lens)
		return vecs
	}
	enc := make([][]clique.Word, n)
	net.ForEach(func(v int) { enc[v] = codec.EncodeSlice(nil, vecs[v]) })
	all := AllGather(net, enc)
	out := make([][]T, n)
	net.ForEach(func(v int) { out[v] = decodeMsg(codec, len(vecs[v]), all[v]) })
	return out
}

// Transpose gives every node v the column (rows[0][v], …, rows[n−1][v])
// of a row-distributed n×n matrix: every node sends one element on every
// link, one round. A direct network charges the round analytically and
// reads the columns in place; a wire network sends the encoded elements.
func Transpose[T any](net *clique.Network, rows [][]T, codec Codec[T]) [][]T {
	n := net.N()
	col := make([][]T, n)
	for v := range col {
		col[v] = make([]T, n)
	}
	if wire(net) {
		var buf []clique.Word
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				buf = codec.EncodeSlice(buf[:0], rows[src][dst:dst+1])
				net.SendVec(src, dst, buf)
			}
		}
		mail := net.Flush()
		net.ForEach(func(v int) {
			for src := 0; src < n; src++ {
				codec.DecodeSlice(col[v][src:src+1], mail.From(v, src))
			}
		})
		return col
	}
	var load int64
	if n > 1 {
		load = int64(codec.EncodedLen(1))
	}
	net.FlushAnalytic(load, load*int64(n)*int64(n-1))
	net.ForEach(func(v int) {
		for src := 0; src < n; src++ {
			col[v][src] = rows[src][v]
		}
	})
	return col
}

// Post is the typed unicast path for traffic too irregular for an n×n
// message matrix — the CSR engine's per-nonzero and per-tile sends at
// sparse-link scale. Send queues one message; Flush delivers everything
// queued in one synchronous step, charged as Flush charges. Sends are
// single-threaded, like the engines' exchange loops.
type Post[T any] struct {
	net   *clique.Network
	codec Codec[T]
	wire  bool
	buf   []clique.Word
	sent  []postRec // wire plane: one record per queued message
}

// postRec is a queued message's addressing on the wire plane: the
// receiver cuts its word stream from src by the recorded counts.
type postRec struct {
	src, dst int32
	k        int
}

// NewPost returns a typed unicast sender over net.
func NewPost[T any](net *clique.Network, codec Codec[T]) *Post[T] {
	return &Post[T]{net: net, codec: codec, wire: wire(net)}
}

// Send queues *msg from src to dst, charged EncodedLen(len(*msg)) words.
// The message is relinquished: on a direct network it travels by
// reference, so it must stay untouched until the receivers are done.
//
//cc:hotpath
func (p *Post[T]) Send(src, dst int, msg *[]T) {
	if p.wire {
		p.buf = p.codec.EncodeSlice(p.buf[:0], *msg)
		p.net.SendVec(src, dst, p.buf)
		p.sent = append(p.sent, postRec{src: int32(src), dst: int32(dst), k: len(*msg)})
		return
	}
	p.net.SendPayload(src, dst, int64(p.codec.EncodedLen(len(*msg))), msg)
}

// Delivery is what one Post.Flush delivered. It shares the Mail's
// lifetime: valid until the network's second-next Flush.
type Delivery[T any] struct {
	mail *clique.Mail
	got  [][]postMsg[T] // wire plane: per destination, in source then FIFO order
}

type postMsg[T any] struct {
	src int
	msg []T
}

// Flush delivers every queued message.
func (p *Post[T]) Flush() Delivery[T] {
	mail := p.net.Flush()
	if !p.wire {
		return Delivery[T]{mail: mail}
	}
	n := p.net.N()
	byDst := make([][]postRec, n)
	for _, r := range p.sent {
		byDst[r.dst] = append(byDst[r.dst], r)
	}
	p.sent = p.sent[:0]
	got := make([][]postMsg[T], n)
	p.net.ForEach(func(dst int) {
		recs := byDst[dst]
		slices.SortStableFunc(recs, func(a, b postRec) int { return int(a.src) - int(b.src) })
		i := 0
		mail.Each(dst, func(src int, ws []clique.Word) {
			for i < len(recs) && int(recs[i].src) < src {
				i++ // the fault plane withheld this source's delivery
			}
			for ; i < len(recs) && int(recs[i].src) == src; i++ {
				k := recs[i].k
				if msg := decodeMsg(p.codec, k, ws); msg != nil {
					got[dst] = append(got[dst], postMsg[T]{src: src, msg: msg})
				}
				ws = ws[min(len(ws), p.codec.EncodedLen(k)):]
			}
		})
	})
	return Delivery[T]{got: got}
}

// Each calls f for every message delivered to dst, in increasing source
// order and FIFO per source.
func (d Delivery[T]) Each(dst int, f func(src int, msg []T)) {
	if d.mail == nil {
		for _, m := range d.got[dst] {
			f(m.src, m.msg)
		}
		return
	}
	d.mail.EachPayload(dst, func(src int, ps []clique.Payload) {
		for _, p := range ps {
			f(src, *(p.(*[]T)))
		}
	})
}

// From returns the first message dst received from src (nil if none).
func (d Delivery[T]) From(dst, src int) []T {
	if d.mail == nil {
		for _, m := range d.got[dst] {
			if m.src == src {
				return m.msg
			}
		}
		return nil
	}
	if ps := d.mail.PayloadsFrom(dst, src); len(ps) > 0 {
		return *(ps[0].(*[]T))
	}
	return nil
}
