package rpcsvc

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/nn"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// cloneFactory mints per-session clones of one sampled base agent — the
// cmd/decima-server deployment shape.
func cloneFactory(base *core.Agent) func(name string, seed int64) (scheduler.Scheduler, error) {
	return func(name string, seed int64) (scheduler.Scheduler, error) {
		return base.Clone(rand.New(rand.NewSource(seed))), nil
	}
}

// TestConcurrentServingBitIdentical drives many concurrent sampled sessions
// through one server and compares every session's full noisy run against an
// in-process reference using an identically seeded clone: the schedules and
// metrics — and therefore every RNG draw along the way — must match exactly,
// however the sessions' events interleaved. Run under -race (make race) this
// also guards the per-session locking.
func TestConcurrentServingBitIdentical(t *testing.T) {
	const executors = 8
	const sessions = 8
	base := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(77)))
	base.Greedy = false // sampled: any probability or RNG drift changes the run

	_, cli := startSessionServer(t, SessionConfig{
		Default: "decima",
		New:     cloneFactory(base),
	})

	// In-process references, sequentially.
	want := make([]string, sessions)
	for k := 0; k < sessions; k++ {
		a := base.Clone(rand.New(rand.NewSource(int64(k + 1))))
		jobs := workload.Batch(rand.New(rand.NewSource(int64(20+k))), 5)
		res := sim.New(sim.SparkDefaults(executors), jobs, scheduler.Sim(a), rand.New(rand.NewSource(int64(k)))).Run()
		if res.Unfinished != 0 || res.Deadlock {
			t.Fatalf("reference run %d incomplete", k)
		}
		want[k] = runKey(res)
	}

	got := make([]string, sessions)
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for k := 0; k < sessions; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var rpcErr error
			ss := &SessionScheduler{Client: cli, Seed: int64(k + 1), OnError: func(e error) { rpcErr = e }}
			defer ss.Close()
			jobs := workload.Batch(rand.New(rand.NewSource(int64(20+k))), 5)
			res := sim.New(sim.SparkDefaults(executors), jobs, ss, rand.New(rand.NewSource(int64(k)))).Run()
			if rpcErr != nil {
				errs <- rpcErr
				return
			}
			got[k] = runKey(res)
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for k := 0; k < sessions; k++ {
		if got[k] != want[k] {
			t.Fatalf("session %d: concurrent serving diverged from in-process reference:\n%s\nvs\n%s", k, got[k], want[k])
		}
	}
}

// TestEvictionWhileBatched hammers a tiny session table with concurrent
// decima sessions so LRU evictions race in-flight events. The invariants:
// the bound holds, errors are only the documented unknown-session kind
// (after which reopening works), and nothing deadlocks — an eviction that
// hits a deciding session must simply wait for its in-flight decision.
func TestEvictionWhileBatched(t *testing.T) {
	const executors = 4
	base := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(99)))
	srv, cli := startSessionServer(t, SessionConfig{
		Default:     "decima",
		New:         cloneFactory(base),
		MaxSessions: 2,
		IdleTimeout: -1,
	})

	st := func() *sim.State {
		js := jobStateFromInfo(&JobInfo{ID: 1, Stages: []StageInfo{{ID: 0, NumTasks: 2, TaskDuration: 1, CPUReq: 1}}})
		return &sim.State{
			Jobs:           []*sim.JobState{js},
			FreeExecutors:  []*sim.Executor{{ID: 0, Mem: 1}},
			TotalExecutors: executors,
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	fails := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				sess, err := cli.OpenSession(&OpenRequest{TotalExecutors: executors, Seed: int64(w + 1)})
				if err != nil {
					fails <- err
					return
				}
				for e := 0; e < 3; e++ {
					if _, err := sess.Event(st()); err != nil {
						break // evicted mid-run: reopen next round
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(fails)
	for err := range fails {
		t.Fatal(err)
	}
	if got := srv.Sessions(); got > 2 {
		t.Fatalf("session table exceeded bound: %d > 2", got)
	}
}

// TestServerCloseWithParkedEvents shuts a server down while clients are
// mid-run: every in-flight decision must be answered or fail with a
// connection error — never hang.
func TestServerCloseWithParkedEvents(t *testing.T) {
	const executors = 6
	base := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(5)))
	srv, err := ListenAndServeSessions("127.0.0.1:0", SessionConfig{
		Default: "decima",
		New:     cloneFactory(base),
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ss := &SessionScheduler{Client: cli, Seed: int64(c + 1), OnError: func(error) {}}
			jobs := workload.Batch(rand.New(rand.NewSource(int64(c))), 3)
			// The run may finish degraded (declined events after Close): the
			// only failure mode under test is a hang.
			sim.New(sim.SparkDefaults(executors), jobs, ss, rand.New(rand.NewSource(int64(c)))).Run()
		}(c)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestConcurrentSessionsMatMulPool is the race bar for the matmul kernel
// pool under serving: concurrent sampled sessions over one server with the
// pool forced to four workers. Each session's cluster runs one 300-stage
// job, so every decision's per-job node forwards are at least 256 rows —
// past the pool's size gate — and the row blocks really spread over the
// pool. Kernel results are bit-identical for any worker count, so every
// session's run must equal its in-process reference exactly.
func TestConcurrentSessionsMatMulPool(t *testing.T) {
	nn.SetMatMulWorkers(4)
	defer nn.SetMatMulWorkers(0)

	const (
		executors = 6
		sessions  = 4
		stages    = 300
		horizon   = 200.0 // simulated seconds: ~70 decisions per session
	)
	base := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(31)))
	base.Greedy = false // sampled: any drift changes the RNG draws
	_, cli := startSessionServer(t, SessionConfig{Default: "decima", New: cloneFactory(base)})

	job := func(k int) []*dag.Job {
		return []*dag.Job{dag.Random(rand.New(rand.NewSource(int64(40+k))), stages, 0.02)}
	}
	want := make([]string, sessions)
	for k := range want {
		a := base.Clone(rand.New(rand.NewSource(int64(k + 1))))
		res := sim.New(sim.SparkDefaults(executors), job(k), scheduler.Sim(a), rand.New(rand.NewSource(int64(k)))).RunUntil(horizon)
		want[k] = runKey(res)
	}

	got := make([]string, sessions)
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for k := 0; k < sessions; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var rpcErr error
			ss := &SessionScheduler{Client: cli, Seed: int64(k + 1), OnError: func(e error) { rpcErr = e }}
			defer ss.Close()
			res := sim.New(sim.SparkDefaults(executors), job(k), ss, rand.New(rand.NewSource(int64(k)))).RunUntil(horizon)
			if rpcErr != nil {
				errs <- rpcErr
				return
			}
			got[k] = runKey(res)
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("session %d: served run with the kernel pool diverged from in-process reference:\n%s\nvs\n%s", k, got[k], want[k])
		}
	}
}
