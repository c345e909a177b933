// Command perfbench is the repository's benchmark: it runs one workload
// against the scheduler stack in this process (replicas and router behind
// real loopback TCP), checks every schedule against an in-process
// reference, and prints every metric by name with its unit. The last line
// of standard output is the result as one JSON object.
//
//	bash perfbench/run.sh --workload serve-1 --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics and writes the span file. --workload all runs every workload in
// turn. The exit status is non-zero when any schedule fails the oracle.
// README.md maps every metric to its layer and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadOrder, ", ")+" or all")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&opt.seconds, "seconds", 30, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&opt.out, "out", ".", "directory for span files")
	flag.Parse()
	opt.trace = trace == 1
	ok, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes the selected workloads and prints their results. It reports
// whether every schedule passed the oracle.
func run(opt options) (bool, error) {
	names := []string{opt.workload}
	if opt.workload == "all" {
		names = workloadOrder
	} else if workloads[opt.workload] == nil {
		return false, fmt.Errorf("unknown workload %q (have %s, all)", opt.workload, strings.Join(workloadOrder, ", "))
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	stamp, err := json.Marshal(map[string]any{"machine": readMachine()})
	if err != nil {
		return false, err
	}
	fmt.Printf("# %s\n", stamp)
	all := resultJSON{Correct: true, Metrics: map[string]valueJSON{}}
	for _, name := range names {
		o2 := opt
		o2.workload = name
		o, err := workloads[name](o2)
		if err != nil {
			return false, fmt.Errorf("%s: %w", name, err)
		}
		if err := o.report(os.Stdout, defs); err != nil {
			return false, err
		}
		all.Correct = all.Correct && o.correct
		all.Attempted += o.attempted
		all.Failed += o.failed
		for _, d := range defs {
			all.Metrics[name+"/"+d.name] = valueJSON{Value: o.metrics[d.name], Unit: d.unit}
		}
	}
	if len(names) > 1 {
		b, err := json.Marshal(all)
		if err != nil {
			return false, err
		}
		fmt.Printf("%s\n", b)
	}
	return all.Correct, nil
}
