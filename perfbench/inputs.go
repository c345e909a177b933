package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Workload inputs. Everything a workload feeds the program is generated
// here from the --seed argument; the program sees only the generated job
// sequences and simulator seeds.

const (
	// executors is the cluster size of every workload.
	executors = 10
	// modelSeed initialises the served (untrained) model and the model
	// training starts from. It is part of the program under test, not an
	// input, so it does not follow --seed.
	modelSeed = 42
	// sessionSeed is the seed every serving session opens with.
	sessionSeed = 1
	// warmSeed generates the warm-up mix every serving set-up replays. It
	// does not follow --seed, so that setup_s times the same work in every
	// run: with a warm-up drawn from --seed, the job mix alone moved the
	// set-up time by a quarter between seeds.
	warmSeed = 3
)

// warmUp is the 10-job mix each serving session slot replays once per
// set-up.
func warmUp() []*sequence { return batches(rand.New(rand.NewSource(warmSeed)), 1, 10) }

// sequence is one job arrival sequence plus the seed of the simulator run
// that replays it, and the in-process reference outcome of that run.
type sequence struct {
	jobs    []*dag.Job
	simSeed int64
	// ref is the reference run of the untrained model in process; every
	// served run of the sequence must reproduce it bit for bit.
	ref *sim.Result
	// fair is the average JCT of the fair-share heuristic on the sequence.
	fair float64
}

// simulate runs one sequence under sched to completion.
func simulate(cfg sim.Config, seq *sequence, sched sim.Scheduler) *sim.Result {
	return sim.New(cfg, workload.CloneAll(seq.jobs), sched, rand.New(rand.NewSource(seq.simSeed))).Run()
}

// batches draws n batched-arrival sequences of size jobs each.
func batches(rng *rand.Rand, n, size int) []*sequence {
	out := make([]*sequence, n)
	for i := range out {
		out[i] = &sequence{jobs: workload.Batch(rng, size), simSeed: rng.Int63()}
	}
	return out
}

// poissons draws n Poisson-arrival sequences of size jobs at the given load.
func poissons(rng *rand.Rand, n, size int, load float64) []*sequence {
	iat := workload.IATForLoad(load, executors)
	out := make([]*sequence, n)
	for i := range out {
		out[i] = &sequence{jobs: workload.Poisson(rng, size, iat), simSeed: rng.Int63()}
	}
	return out
}

// newModel builds the untrained greedy model every workload starts from.
func newModel() *core.Agent {
	a := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(modelSeed)))
	a.Greedy = true
	return a
}

// replayReference runs every sequence in process under a fresh clone of
// model, as a session would get one, and under the fair heuristic, on one
// goroutine per CPU. A reference run that leaves jobs unfinished or
// deadlocks is an error of the program under test.
func replayReference(cfg sim.Config, model *core.Agent, seqs []*sequence) error {
	errs := make([]error, len(seqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(seqs); i = int(next.Add(1)) - 1 {
				errs[i] = replayOne(cfg, model, seqs[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("sequence %d: %w", i, err)
		}
	}
	return nil
}

// replayOne computes one sequence's reference run and fair-share JCT.
func replayOne(cfg sim.Config, model *core.Agent, seq *sequence) error {
	seq.ref = simulate(cfg, seq, model.Clone(rand.New(rand.NewSource(sessionSeed))))
	if err := complete(seq.ref); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	fair, err := scheduler.New("fair", scheduler.Options{Executors: executors})
	if err != nil {
		return err
	}
	res := simulate(cfg, seq, scheduler.Sim(fair))
	if err := complete(res); err != nil {
		return fmt.Errorf("fair run: %w", err)
	}
	seq.fair = res.AvgJCT()
	return nil
}

// complete checks that a run finished every job without deadlock.
func complete(res *sim.Result) error {
	if res.Unfinished != 0 || res.Deadlock {
		return fmt.Errorf("unfinished=%d deadlock=%v", res.Unfinished, res.Deadlock)
	}
	return nil
}

// sameSchedule compares two runs of one sequence: every job must finish (or
// fail) at bitwise the same time, with the same event count.
func sameSchedule(got, want *sim.Result) error {
	if err := complete(got); err != nil {
		return err
	}
	if got.Invocations != want.Invocations {
		return fmt.Errorf("%d scheduling events, reference has %d", got.Invocations, want.Invocations)
	}
	times := func(r *sim.Result) map[int]float64 {
		m := make(map[int]float64, len(r.Completed)+len(r.Failed))
		for _, j := range r.Completed {
			m[j.ID] = j.Completion
		}
		for _, j := range r.Failed {
			m[j.ID] = -j.Completion // a failed job never matches a completed one
		}
		return m
	}
	g, w := times(got), times(want)
	if len(g) != len(w) {
		return fmt.Errorf("%d jobs ended, reference has %d", len(g), len(w))
	}
	for id, wt := range w {
		gt, ok := g[id]
		if !ok || math.Float64bits(gt) != math.Float64bits(wt) {
			return fmt.Errorf("job %d ended at %v, reference %v", id, gt, wt)
		}
	}
	return nil
}

// jctVsFair is the geometric mean, over the sequences, of the reference
// run's average JCT divided by the fair heuristic's. A geometric mean of
// per-sequence ratios weighs every sequence alike, so the few sequences
// that saturate the cluster do not decide the figure.
func jctVsFair(seqs []*sequence) float64 {
	var logSum float64
	for _, s := range seqs {
		logSum += math.Log(s.ref.AvgJCT() / s.fair)
	}
	return math.Exp(logSum / float64(len(seqs)))
}
