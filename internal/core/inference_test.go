package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/sim"
	"repro/internal/workload"
)

// resultKey flattens the outcome of a run for exact comparison.
func resultKey(r *sim.Result) string {
	s := fmt.Sprintf("inv=%d js=%v ms=%v dl=%v unf=%d", r.Invocations, r.JobSeconds, r.Makespan, r.Deadlock, r.Unfinished)
	for _, j := range r.Completed {
		s += fmt.Sprintf("|%d:%v:%v", j.ID, j.Completion, j.WorkExecuted)
	}
	return s
}

// runWith evaluates one deterministic workload under the given agent and
// returns the flattened result. Sim noise and (when sampling) action draws
// are seeded identically across calls, so any divergence in the flattened
// result means the agents decided differently somewhere.
func runWith(a *Agent, jobs []*dag.Job, simSeed int64, cfg sim.Config) string {
	a.SetRNG(rand.New(rand.NewSource(simSeed + 1000)))
	res := sim.New(cfg, workload.CloneAll(jobs), a, rand.New(rand.NewSource(simSeed))).Run()
	return resultKey(res)
}

// TestFastPathMatchesTracked runs full evaluations on the tracked path (a
// no-op Hook forces the autograd-building Decide) and the fast path (nil
// Hook) and requires identical schedules and metrics, greedy and sampled.
func TestFastPathMatchesTracked(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		greedy := trial%2 == 0
		rng := rand.New(rand.NewSource(int64(40 + trial)))
		jobs := workload.Batch(rng, 5)
		cfg := sim.SparkDefaults(8)

		tracked := New(DefaultConfig(8), rand.New(rand.NewSource(7)))
		tracked.Greedy = greedy
		tracked.Hook = func(*Step) {} // force the tracked path
		fast := tracked.Clone(rand.New(rand.NewSource(1)))
		fast.Greedy = greedy

		a := runWith(tracked, jobs, int64(trial), cfg)
		b := runWith(fast, jobs, int64(trial), cfg)
		if a != b {
			t.Fatalf("trial %d (greedy=%v): fast path diverged from tracked path:\n%s\nvs\n%s", trial, greedy, a, b)
		}
	}
}

// TestCacheOnOffBitIdentical requires evaluation runs with the incremental
// embedding cache enabled and disabled to produce identical schedules and
// metrics — the hard equivalence bar of the cache design — over randomized
// continuous workloads with all simulator noise sources on.
func TestCacheOnOffBitIdentical(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(60 + trial)))
		jobs := workload.Poisson(rng, 8, workload.IATForLoad(0.6, 8))
		cfg := sim.SparkDefaults(8)

		cached := New(DefaultConfig(8), rand.New(rand.NewSource(9)))
		cached.Greedy = trial%2 == 0
		uncached := cached.Clone(rand.New(rand.NewSource(1)))
		uncached.Greedy = cached.Greedy
		uncached.NoCache = true

		a := runWith(cached, jobs, int64(trial), cfg)
		b := runWith(uncached, jobs, int64(trial), cfg)
		if a != b {
			t.Fatalf("trial %d: cache on/off results differ:\n%s\nvs\n%s", trial, a, b)
		}
	}
}

// TestIncrementalEmbedBitIdentical drives a full noisy simulation and, at
// every scheduling event, compares the incrementally cached embeddings
// against both a fresh fast-path embed and the tracked autograd embed —
// element for element, bit for bit — after arbitrary sequences of simulator
// mutations (task launches/completions, stage completions, executor moves,
// arrivals, departures).
func TestIncrementalEmbedBitIdentical(t *testing.T) {
	agent := New(DefaultConfig(8), rand.New(rand.NewSource(11)))
	agent.Greedy = true
	fresh := agent.Clone(rand.New(rand.NewSource(1)))
	fresh.NoCache = true

	events := 0
	probe := sim.SchedulerFunc(func(s *sim.State) *sim.Action {
		events++
		cachedEmb := agent.embedInference(s)
		trackedEmb := agent.embed(s)
		// Compare before fresh.embedInference reuses its scratch arena.
		for i := range s.Jobs {
			a, b := cachedEmb.Nodes[i], trackedEmb.Nodes[i]
			for k := range a.Data {
				if a.Data[k] != b.Data[k] {
					t.Fatalf("event %d job %d: cached node emb differs from tracked at %d", events, i, k)
				}
			}
		}
		for k := range trackedEmb.Jobs.Data {
			if cachedEmb.Jobs.Data[k] != trackedEmb.Jobs.Data[k] {
				t.Fatalf("event %d: cached job summary differs from tracked at %d", events, k)
			}
		}
		for k := range trackedEmb.Global.Data {
			if cachedEmb.Global.Data[k] != trackedEmb.Global.Data[k] {
				t.Fatalf("event %d: cached global summary differs from tracked at %d", events, k)
			}
		}
		freshEmb := fresh.embedInference(s)
		for k := range trackedEmb.Global.Data {
			if freshEmb.Global.Data[k] != trackedEmb.Global.Data[k] {
				t.Fatalf("event %d: uncached fast-path global differs from tracked at %d", events, k)
			}
		}
		return agent.Schedule(s)
	})

	rng := rand.New(rand.NewSource(21))
	jobs := workload.Poisson(rng, 10, workload.IATForLoad(0.7, 8))
	res := sim.New(sim.SparkDefaults(8), jobs, probe, rng).Run()
	if res.Unfinished != 0 || res.Deadlock {
		t.Fatalf("probe run did not complete: unfinished=%d deadlock=%v", res.Unfinished, res.Deadlock)
	}
	if events < 20 {
		t.Fatalf("probe saw only %d scheduling events", events)
	}
}

// TestSwapDropsStaleEmbeddings rewrites an agent's parameters mid-run — by
// SyncFrom (the serving hot-swap) and by Load — and requires every later
// decision's embeddings to equal, bit for bit, those of a NoCache clone of
// the new weights. The cache key covers job state, not parameters, so an
// embedding cached before the rewrite must never be served after it.
func TestSwapDropsStaleEmbeddings(t *testing.T) {
	src := New(DefaultConfig(10), rand.New(rand.NewSource(111)))
	path := filepath.Join(t.TempDir(), "src.gob")
	if err := src.Save(path); err != nil {
		t.Fatal(err)
	}
	swaps := []struct {
		name string
		swap func(a *Agent) error
	}{
		{"SyncFrom", func(a *Agent) error { a.SyncFrom(src); return nil }},
		{"Load", func(a *Agent) error { return a.Load(path) }},
	}
	for _, sw := range swaps {
		t.Run(sw.name, func(t *testing.T) {
			const swapAt = 15
			agent := New(DefaultConfig(10), rand.New(rand.NewSource(11)))
			agent.Greedy = true
			ref := agent.Clone(rand.New(rand.NewSource(1)))
			ref.NoCache = true

			events := 0
			probe := sim.SchedulerFunc(func(s *sim.State) *sim.Action {
				events++
				if events == swapAt {
					if err := sw.swap(agent); err != nil {
						t.Fatal(err)
					}
					ref = src.Clone(rand.New(rand.NewSource(1)))
					ref.NoCache = true
				}
				got, want := agent.embedInference(s), ref.embedInference(s)
				for i := range s.Jobs {
					for k, v := range want.Nodes[i].Data {
						if got.Nodes[i].Data[k] != v {
							t.Fatalf("event %d job %d: node embedding differs from the NoCache reference at %d", events, i, k)
						}
					}
				}
				for k, v := range want.Jobs.Data {
					if got.Jobs.Data[k] != v {
						t.Fatalf("event %d: job summary differs from the NoCache reference at %d", events, k)
					}
				}
				for k, v := range want.Global.Data {
					if got.Global.Data[k] != v {
						t.Fatalf("event %d: global summary differs from the NoCache reference at %d", events, k)
					}
				}
				return agent.Schedule(s)
			})

			// A batch of jobs present from the start: most jobs outlive the
			// swap with cache entries whose keys recur after it.
			rng := rand.New(rand.NewSource(1))
			jobs := workload.Batch(rng, 10)
			res := sim.New(sim.SparkDefaults(10), jobs, probe, rng).Run()
			if res.Unfinished != 0 || res.Deadlock {
				t.Fatalf("probe run did not complete: unfinished=%d deadlock=%v", res.Unfinished, res.Deadlock)
			}
			if events < 2*swapAt {
				t.Fatalf("probe saw only %d scheduling events", events)
			}
		})
	}
}

// TestVersionKeyInvariant checks the contract the cache is built on: for a
// fixed job pointer, whenever the (Version, freeTotal, local) key repeats
// across scheduling events, the job's feature matrix is identical.
func TestVersionKeyInvariant(t *testing.T) {
	agent := New(DefaultConfig(8), rand.New(rand.NewSource(31)))
	agent.Greedy = true
	type key struct {
		job       *sim.JobState
		version   uint64
		freeTotal int
		total     int
		local     float64
	}
	seen := map[key]string{}
	probe := sim.SchedulerFunc(func(s *sim.State) *sim.Action {
		for _, j := range s.Jobs {
			freeTotal, total, local := featureKeyInputs(s, j)
			h := fmt.Sprintf("%v", agent.Features(s, j).Data)
			k := key{j, j.Version, freeTotal, total, local}
			if prev, ok := seen[k]; ok && prev != h {
				t.Fatalf("job %d: same cache key, different features — a sim mutation is missing a Version bump", j.Job.ID)
			}
			seen[k] = h
		}
		return agent.Schedule(s)
	})
	rng := rand.New(rand.NewSource(32))
	jobs := workload.Poisson(rng, 10, workload.IATForLoad(0.7, 8))
	if res := sim.New(sim.SparkDefaults(8), jobs, probe, rng).Run(); res.Unfinished != 0 {
		t.Fatalf("probe run did not complete")
	}
}

// TestFastPathParallelClones exercises the fast path from concurrent
// goroutines, each holding a private clone — the serving/evaluation
// concurrency model — and checks clones agree with a serial reference run.
// Run under -race (make race) this also proves the scratch arenas and
// embedding caches share no state.
func TestFastPathParallelClones(t *testing.T) {
	master := New(DefaultConfig(6), rand.New(rand.NewSource(51)))
	master.Greedy = true
	rng := rand.New(rand.NewSource(52))
	jobs := workload.Batch(rng, 4)
	want := runWith(master.Clone(rand.New(rand.NewSource(1))), jobs, 5, sim.SparkDefaults(6))

	const workers = 4
	got := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clone := master.Clone(rand.New(rand.NewSource(int64(w))))
			got[w] = runWith(clone, jobs, 5, sim.SparkDefaults(6))
		}(w)
	}
	wg.Wait()
	for w, g := range got {
		if g != want {
			t.Fatalf("worker %d diverged from serial reference", w)
		}
	}
}
