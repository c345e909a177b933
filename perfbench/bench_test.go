package main

import (
	"encoding/json"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90},
		{999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, p, beyond(c.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 100; i >= 1; i-- {
		d = append(d, time.Duration(i))
	}
	d = sortDurations(d)
	for p, want := range map[float64]time.Duration{1: 1, 50: 50, 90: 90, 99: 99, 100: 100} {
		if got := percentile(d, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "run", start: 0, end: 100, parent: -1},
		{name: "call", start: 10, end: 30, parent: 0},
		{name: "call", start: 20, end: 50, parent: 0}, // overlaps the first call
		{name: "call", start: 60, end: 70, parent: 0},
		{name: "call", start: 90, end: 120, parent: 0}, // runs past its parent
		{name: "inner", start: 61, end: 69, parent: 3},
	}
	st := selfTimes(spans)
	// Children cover [10,50] + [60,70] + [90,100] = 60 of the run's 100.
	if got := st["run"]; got.count != 1 || got.total != 100 || got.self != 40 {
		t.Errorf("run: %+v, want count 1, total 100, self 40", got)
	}
	// Calls: 20+30+10+30 = 90 total; the third call loses 8 to its child.
	if got := st["call"]; got.count != 4 || got.total != 90 || got.self != 82 {
		t.Errorf("call: %+v, want count 4, total 90, self 82", got)
	}
	if got := st["inner"]; got.self != 8 {
		t.Errorf("inner self %v, want 8", got.self)
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}

func TestRecorderAndTrace(t *testing.T) {
	var nilRec *recorder
	if i := nilRec.begin("x", -1, 0, 0); i != -1 {
		t.Fatalf("nil recorder began span %d", i)
	}
	nilRec.end(-1)
	tr := newTrace()
	r := tr.recorder()
	p := r.begin("run", -1, 7, 0)
	c := r.begin("call", p, 7, 1)
	r.end(c)
	r.end(p)
	if tr.spans() != 2 || r.spans[1].parent != p || r.spans[1].req != [2]int64{7, 1} {
		t.Fatalf("spans recorded wrong: %+v", r.spans)
	}
	path := t.TempDir() + "/spans.jsonl"
	if err := tr.write(path, map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines int
	for _, c := range b {
		if c == '\n' {
			lines++
		}
	}
	if lines != 3 {
		t.Fatalf("span file has %d lines, want header + 2", lines)
	}
}

func TestCountingConn(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	done := make(chan error, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			done <- err
			return
		}
		_, err = c.Write([]byte("ok"))
		done <- err
	}()
	var w wireCounter
	c, err := w.dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if w.out.Load() != 5 || w.in.Load() != 2 {
		t.Fatalf("counted out=%d in=%d, want 5 and 2", w.out.Load(), w.in.Load())
	}
}

func TestRekeyShare(t *testing.T) {
	a, b := &sim.JobState{Version: 1}, &sim.JobState{Version: 1}
	e1, e2 := &sim.Executor{ID: 1}, &sim.Executor{ID: 2}
	st := &sim.State{Jobs: []*sim.JobState{a, b}, FreeExecutors: []*sim.Executor{e1, e2}, TotalExecutors: 2}
	var r rekeyTracker
	step := func(want int64) {
		t.Helper()
		before := r.rekeys
		r.observe(st)
		if got := r.rekeys - before; got != want {
			t.Fatalf("rekeys this decision = %d, want %d", got, want)
		}
	}
	step(2) // first sight of both jobs
	step(0) // nothing changed
	a.Version++
	step(1) // one job's version
	st.FreeExecutors = st.FreeExecutors[:1]
	step(2) // free count is in every key
	e1.BoundTo = b
	step(1) // locality of b only
	st.TotalExecutors = 3
	step(2) // pool size is in every key
	if got, want := r.share(), 8.0/12; got != want {
		t.Fatalf("share = %v, want %v", got, want)
	}
	if got := candidates(&sim.State{}); got != 0 {
		t.Fatalf("candidates of an empty state = %d", got)
	}
}

func TestSameSchedule(t *testing.T) {
	ref := &sim.Result{Invocations: 3, Completed: []sim.JobRecord{{ID: 0, Completion: 1.5}, {ID: 1, Completion: 2.25}}}
	same := &sim.Result{Invocations: 3, Completed: []sim.JobRecord{{ID: 1, Completion: 2.25}, {ID: 0, Completion: 1.5}}}
	if err := sameSchedule(same, ref); err != nil {
		t.Fatalf("reordered completions rejected: %v", err)
	}
	for name, got := range map[string]*sim.Result{
		"time":       {Invocations: 3, Completed: []sim.JobRecord{{ID: 0, Completion: 1.5}, {ID: 1, Completion: 2.2500000000000004}}},
		"events":     {Invocations: 4, Completed: ref.Completed},
		"unfinished": {Invocations: 3, Completed: ref.Completed[:1], Unfinished: 1},
		"deadlock":   {Invocations: 3, Completed: ref.Completed, Deadlock: true},
		"failed":     {Invocations: 3, Completed: ref.Completed[:1], Failed: []sim.JobRecord{{ID: 1, Completion: 2.25}}},
	} {
		if sameSchedule(got, ref) == nil {
			t.Errorf("%s: mismatch accepted", name)
		}
	}
}

func TestParseProm(t *testing.T) {
	page := "# TYPE x counter\nx_total{replica=\"a\"} 2\nx_total{replica=\"b\"} 3\ny 1.5e-3\n\nbad line\n"
	p := parseProm(page)
	if p["x_total"] != 5 || p["y"] != 1.5e-3 || len(p) != 2 {
		t.Fatalf("parsed %v", p)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric catalogue in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, catalogue %d/%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	maxBound := 0.0
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, catalogue %+v", i, m, d)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range bj.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, catalogue %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that the oracle passes and every metric is reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			opt := options{workload: name, seed: 3, seconds: 1, trace: traced, out: t.TempDir()}
			o, err := workloads[name](opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !o.correct || o.failed != 0 || o.attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d %v", name, traced, o.correct, o.failed, o.attempted, o.mismatches)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if err := o.report(io.Discard, defs); err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
		}
	}
}

func TestCalibration(t *testing.T) {
	c := startCalibration()
	time.Sleep(3 * calibPeriod)
	k := c.finish()
	if k <= 0 || len(c.samples) < 2 {
		t.Fatalf("kernel %v from %d samples", k, len(c.samples))
	}
	if again := c.finish(); again != k {
		t.Fatalf("second finish = %v, first %v", again, k)
	}
	if got, want := atReference(60, calibRef/2), 120.0; got != want {
		t.Fatalf("atReference(60, ref/2) = %v, want %v", got, want)
	}
}
