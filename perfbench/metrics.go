package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef describes one reported metric. BENCHMARK.json at the
// repository root lists the same names, units and directions (a test keeps
// the two in step); the bound of an end-to-end metric lives there.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. Every workload reports every one of them; README.md says
// what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"decide_p50_us", "us", "lower"},
	{"cpu_us_per_decide", "us", "lower"},
	{"jct_vs_fair", "ratio", "lower"},
}

// perLayer are the metrics of single layers, reported by every traced run.
var perLayer = []metricDef{
	{"sim.self_us_per_event", "us", "lower"},
	{"sim.events_per_run", "count", "lower"},
	{"core.decide_us", "us", "lower"},
	{"core.decide_nocache_us", "us", "lower"},
	{"core.jobs_per_event", "count", "lower"},
	{"core.cands_per_event", "count", "lower"},
	{"core.rekey_share", "ratio", "lower"},
	{"gnn.forward_us", "us", "lower"},
	{"rpcsvc.server.decide_us", "us", "lower"},
	{"rpcsvc.overhead_us", "us", "lower"},
	{"rpcsvc.wire_out_bytes_per_event", "B", "lower"},
	{"rpcsvc.wire_in_bytes_per_event", "B", "lower"},
	{"rpcsvc.batched_share", "ratio", "higher"},
	{"rpcsvc.batch_size_mean", "count", "higher"},
	{"rpcsvc.client.attempts_per_event", "ratio", "lower"},
	{"rpcsvc.shed", "count", "lower"},
	{"rpcsvc.seq_gaps", "count", "lower"},
	{"rpcsvc.evictions", "count", "lower"},
	{"fleet.forward_us", "us", "lower"},
	{"fleet.self_us", "us", "lower"},
	{"fleet.migrations", "count", "lower"},
	{"fleet.replica_share_max", "ratio", "lower"},
	{"rl.iter_p50_ms", "ms", "lower"},
	{"rl.rollout_ms_per_episode", "ms", "lower"},
	{"rl.replay_ms_per_episode", "ms", "lower"},
	{"rl.steps_per_episode", "count", "lower"},
	{"nn.adam_step_us", "us", "lower"},
	{"proc.cpu_us_per_op", "us", "lower"},
	{"proc.sys_share", "ratio", "lower"},
	{"proc.alloc_bytes_per_op", "B", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.gc_cpu_share", "ratio", "lower"},
	{"proc.cpu_util", "ratio", "higher"},
	{"wall.decide_p99_us", "us", "lower"},
	{"wall.decides_per_s", "1/s", "higher"},
	{"wall.episodes_per_s", "1/s", "higher"},
	{"bench.trace_overhead", "ratio", "lower"},
	{"bench.calibration_us", "us", "lower"},
}

// metricSet collects metric values by name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// outcome is what one run of one workload produced.
type outcome struct {
	workload  string
	correct   bool
	attempted int64
	failed    int64
	metrics   metricSet
	// notes are human-readable lines printed before the result (sample
	// counts, the admissible tail percentile, the span file).
	notes []string
	// mismatches describe oracle failures.
	mismatches []string
}

// fail records an oracle failure.
func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	if len(o.mismatches) < 20 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// valueJSON is one metric in the result line.
type valueJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the result line: the last line of standard output.
type resultJSON struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueJSON `json:"metrics"`
}

// report prints the human-readable table followed by the result line. Only
// the metrics of defs are emitted; a missing one is an error in the
// benchmark itself.
func (o *outcome) report(w io.Writer, defs []metricDef) error {
	res := resultJSON{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]valueJSON{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return fmt.Errorf("perfbench: workload %s did not measure %s", o.workload, d.name)
		}
		res.Metrics[d.name] = valueJSON{Value: v, Unit: d.unit}
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, m := range o.mismatches {
		fmt.Fprintf(w, "# ORACLE MISMATCH: %s\n", m)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "# %s: correct=%v attempted=%d failed=%d\n", o.workload, o.correct, o.attempted, o.failed)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
