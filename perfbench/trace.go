package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer holds the traced run's spans in memory: name, start, end, parent
// span and request id, recorded by the benchmark around each call into a
// layer. A nil *tracer is the untraced run; every method is a no-op on it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Req    int64  `json:"req"`    // request (or pass) id shared by a request's spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores a finished span and returns its id (0 when untraced).
func (t *tracer) record(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// reserve allocates the id of a span whose children finish before it
// does; fill completes it.
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{})
	return len(t.spans)
}

func (t *tracer) fill(id int, name string, parent int, req int64, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
}

// selfTime is one span name's total and self time: a span's self time is
// its duration minus the part of it its child spans cover.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() []selfTime {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*selfTime)
	for _, s := range t.spans {
		if s.ID == 0 {
			continue
		}
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
		}
		dur := s.End - s.Start
		a.Count++
		a.TotalMs += float64(dur) / 1e6
		a.SelfMs += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent (serve children overlap).
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	first := true
	var start int64
	for _, x := range ivs {
		switch {
		case first:
			start, end, first = x.a, x.b, false
		case x.a > end:
			total += end - start
			start, end = x.a, x.b
		case x.b > end:
			end = x.b
		}
	}
	if !first {
		total += end - start
	}
	return total
}

// write stores the spans (one JSON object per line) followed by the
// per-name self-time summary.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("perfbench: writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if s.ID != 0 {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := enc.Encode(map[string]any{"self_time": t.selfTimes()}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
