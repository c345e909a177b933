package rpcsvc

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The serving benchmark: one iteration drives a full batched-arrival
// simulation through the service and the reported "ns/event" metric is the
// per-scheduling-event serving latency (RPC round trip + server-side
// decision) — the number a live cluster integration experiences. Sessions
// ship O(delta) payloads into a server-side mirror, so the embedding cache
// stays ON and hits across events.
//
// make bench-json runs these and emits BENCH_serving.json.

const benchExecutors = 10

func benchAgent() *core.Agent {
	a := core.New(core.DefaultConfig(benchExecutors), rand.New(rand.NewSource(42)))
	a.Greedy = true
	return a
}

// BenchmarkServeSession measures the session protocol with the embedding
// cache enabled — the cmd/decima-server default.
func BenchmarkServeSession(b *testing.B) {
	srv, err := ListenAndServeSessions("127.0.0.1:0", SessionConfig{
		Default: "decima",
		New: func(name string, seed int64) (scheduler.Scheduler, error) {
			return benchAgent(), nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	jobs := workload.Batch(rand.New(rand.NewSource(7)), 10)
	cfg := sim.SparkDefaults(benchExecutors)

	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss := &SessionScheduler{Client: cli}
		res := sim.New(cfg, workload.CloneAll(jobs), ss, rand.New(rand.NewSource(3))).Run()
		if res.Unfinished != 0 || res.Deadlock {
			b.Fatalf("run failed: unfinished=%d deadlock=%v", res.Unfinished, res.Deadlock)
		}
		events += res.Invocations
		if err := ss.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	}
}

// BenchmarkServeSessionConcurrent drives benchConcurrency full simulations
// at once, each over its own session (own connection, own agent clone)
// against one server, and reports the aggregate per-event serving latency
// and event throughput.
const benchConcurrency = 16

func BenchmarkServeSessionConcurrent(b *testing.B) {
	base := benchAgent()
	srv, err := ListenAndServeSessions("127.0.0.1:0", SessionConfig{
		Default: "decima",
		New: func(name string, seed int64) (scheduler.Scheduler, error) {
			return base.Clone(rand.New(rand.NewSource(seed))), nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	// A heavier in-flight job mix than the single-session benchmark: decide
	// cost grows with jobs in system, the regime concurrent serving targets.
	jobs := workload.Batch(rand.New(rand.NewSource(7)), 20)
	cfg := sim.SparkDefaults(benchExecutors)

	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < benchConcurrency; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cli, err := Dial(srv.Addr())
				if err != nil {
					b.Error(err)
					return
				}
				defer cli.Close()
				ss := &SessionScheduler{Client: cli, Seed: int64(c + 1)}
				res := sim.New(cfg, workload.CloneAll(jobs), ss, rand.New(rand.NewSource(int64(c)))).Run()
				if res.Unfinished != 0 || res.Deadlock {
					b.Errorf("session %d: unfinished=%d deadlock=%v", c, res.Unfinished, res.Deadlock)
					return
				}
				atomic.AddInt64(&events, int64(res.Invocations))
				if err := ss.Close(); err != nil {
					b.Error(err)
				}
			}(c)
		}
		wg.Wait()
	}
	b.StopTimer()
	if n := atomic.LoadInt64(&events); n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
		b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "events/sec")
	}
}

// BenchmarkOverload sweeps offered load past a deliberately small admission
// bound and reports what the overload plane actually buys: "served/sec"
// (goodput), "shed_frac" (the fraction of offered events shed at the gate)
// and "p99_ms" (99th-percentile latency of the events that were served).
// The acceptance shape in BENCH_overload.json: as offered load crosses
// capacity, shed_frac climbs but p99_ms stays bounded near the decide cost —
// queueing is refused, not absorbed, so the events the server does accept
// never see a collapsed tail.
func BenchmarkOverload(b *testing.B) {
	for _, workers := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("offered=%d", workers), func(b *testing.B) { benchOverload(b, workers) })
	}
}

func benchOverload(b *testing.B, workers int) {
	const (
		maxInflight = 4
		decideCost  = 500 * time.Microsecond
	)
	srv, err := ListenAndServeSessions("127.0.0.1:0", SessionConfig{
		Default:     "slow",
		MaxInflight: maxInflight,
		IdleTimeout: -1,
		New: func(name string, seed int64) (scheduler.Scheduler, error) {
			// A fixed-cost decision: capacity is maxInflight/decideCost, so
			// the sweep's worker counts land below and far above it.
			return scheduler.Func(func(s *sim.State) (*sim.Action, error) {
				time.Sleep(decideCost)
				return nil, nil
			}), nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	// Sessions open before the clock starts: opens contend with the same
	// admission gate, and a shed open would be setup noise, not signal.
	sessions := make([]*Session, workers)
	states := make([]*sim.State, workers)
	for w := range sessions {
		cli, err := Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
		if sessions[w], err = cli.OpenSession(&OpenRequest{TotalExecutors: 2}); err != nil {
			b.Fatal(err)
		}
		states[w] = overloadState(2)
	}

	var served, shed atomic.Int64
	lats := make([][]time.Duration, workers)
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				_, err := sessions[w].Event(states[w])
				switch {
				case err == nil:
					served.Add(1)
					lats[w] = append(lats[w], time.Since(t0))
				case IsOverloaded(err):
					shed.Add(1) // offered-load model: the event is dropped, not retried
				default:
					b.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	offered := served.Load() + shed.Load()
	if offered > 0 {
		b.ReportMetric(float64(shed.Load())/float64(offered), "shed_frac")
	}
	if n := served.Load(); n > 0 {
		b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "served/sec")
		b.ReportMetric(float64(all[len(all)*99/100])/1e6, "p99_ms")
	}
}
