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

// Spans recorded by the benchmark's own wrappers around calls into the
// program's public functions. Nothing inside the program is instrumented:
// a span covers exactly one call made from this package.

// span is one timed call. Times are nanoseconds since the trace epoch.
type span struct {
	name       string
	start, end int64
	// parent indexes the enclosing span in the same recorder (-1: root).
	parent int32
	// req is the request id the span belongs to: run:decision for a
	// simulation run and its decisions (one run is one serving session),
	// iteration:0 for a training iteration.
	req [2]int64
}

// recorder holds the spans of one goroutine; it is not safe for concurrent
// use. A nil recorder records nothing, so untraced runs pass nil.
type recorder struct {
	epoch time.Time
	spans []span
}

// begin opens a span and returns its index for end.
func (r *recorder) begin(name string, parent int32, a, b int64) int32 {
	if r == nil {
		return -1
	}
	t := time.Since(r.epoch).Nanoseconds()
	r.spans = append(r.spans, span{name: name, start: t, end: t, parent: parent, req: [2]int64{a, b}})
	return int32(len(r.spans) - 1)
}

// end closes span i.
func (r *recorder) end(i int32) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].end = time.Since(r.epoch).Nanoseconds()
}

// trace owns the recorders of one traced phase.
type trace struct {
	epoch time.Time
	mu    sync.Mutex
	recs  []*recorder
}

func newTrace() *trace { return &trace{epoch: time.Now()} }

// recorder returns a fresh recorder for one goroutine. A nil trace hands
// out nil recorders.
func (t *trace) recorder() *recorder {
	if t == nil {
		return nil
	}
	r := &recorder{epoch: t.epoch}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

// layerTime sums one span name over a trace: call count, total duration,
// and self time (duration minus the part covered by child spans).
type layerTime struct {
	count       int
	total, self time.Duration
}

// selfTimes reduces the spans of every recorder to per-name totals.
func (t *trace) selfTimes() map[string]layerTime {
	out := map[string]layerTime{}
	if t == nil {
		return out
	}
	for _, r := range t.recs {
		for name, lt := range selfTimes(r.spans) {
			acc := out[name]
			acc.count += lt.count
			acc.total += lt.total
			acc.self += lt.self
			out[name] = acc
		}
	}
	return out
}

// spans returns the number of recorded spans.
func (t *trace) spans() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, r := range t.recs {
		n += len(r.spans)
	}
	return n
}

// selfTimes reduces one recorder's spans to per-name totals. A span's self
// time is its duration minus the union of its children's intervals clipped
// to it, so overlapping children are not subtracted twice.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := map[string]layerTime{}
	for i, s := range spans {
		dur := s.end - s.start
		self := dur - covered(s.start, s.end, children[int32(i)])
		lt := out[s.name]
		lt.count++
		lt.total += time.Duration(dur)
		lt.self += time.Duration(self)
		out[s.name] = lt
	}
	return out
}

// covered returns the length of the union of intervals, each clipped to
// [lo, hi].
func covered(lo, hi int64, intervals [][2]int64) int64 {
	if len(intervals) == 0 {
		return 0
	}
	iv := append([][2]int64(nil), intervals...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanLine is the on-disk form of one span.
type spanLine struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     string `json:"req"`
}

// write stores every span as one JSON line, preceded by a header line with
// the machine stamp. Span ids are global across recorders; parent is -1 for
// roots.
func (t *trace) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	base := 0
	for _, r := range t.recs {
		for i, s := range r.spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			line := spanLine{ID: base + i, Name: s.name, StartNs: s.start, EndNs: s.end, Parent: parent, Req: fmt.Sprintf("%d:%d", s.req[0], s.req[1])}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
		base += len(r.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
