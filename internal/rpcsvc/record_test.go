package rpcsvc

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// collectSink is a RecordSink capturing finished episodes for assertions.
type collectSink struct {
	mu       sync.Mutex
	episodes [][]core.ReplayStep
}

func (c *collectSink) sink(steps []core.ReplayStep) {
	c.mu.Lock()
	c.episodes = append(c.episodes, steps)
	c.mu.Unlock()
}

func (c *collectSink) take() [][]core.ReplayStep {
	c.mu.Lock()
	defer c.mu.Unlock()
	eps := c.episodes
	c.episodes = nil
	return eps
}

// TestRecordingWireEquivalence extends the wire equivalence bar to the
// online loop's serving half: the same seeded run served with trajectory
// recording ON is bit-identical to recording OFF and to the in-process
// agent — recording observes decisions, it must never perturb them. It also
// pins the recording contract: exactly one episode arrives at the sink when
// the session closes, its steps in decision order.
func TestRecordingWireEquivalence(t *testing.T) {
	const executors = 8
	cfg := sim.SparkDefaults(executors)
	jobs := workload.Batch(rand.New(rand.NewSource(5)), 6)

	sink := &collectSink{}
	srv, cli := startSessionServer(t, SessionConfig{
		Default:    "decima",
		New:        agentFactory(executors),
		RecordSink: sink.sink,
	})

	local, err := agentFactory(executors)("decima", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.New(cfg, workload.CloneAll(jobs), scheduler.Sim(local), rand.New(rand.NewSource(9))).Run()

	run := func(record bool) *sim.Result {
		ss := &SessionScheduler{Client: cli, Record: record}
		res := sim.New(cfg, workload.CloneAll(jobs), ss, rand.New(rand.NewSource(9))).Run()
		if err := ss.Close(); err != nil {
			t.Fatal(err)
		}
		return res
	}

	off := run(false)
	if got := sink.take(); len(got) != 0 {
		t.Fatalf("recording-off session delivered %d episodes", len(got))
	}
	on := run(true)

	if runKey(ref) != runKey(off) {
		t.Fatalf("recording-off session diverges from in-process:\n  local %s\n  off   %s", runKey(ref), runKey(off))
	}
	if runKey(ref) != runKey(on) {
		t.Fatalf("recording-on session diverges from in-process:\n  local %s\n  on    %s", runKey(ref), runKey(on))
	}

	eps := sink.take()
	if len(eps) != 1 {
		t.Fatalf("recorded session delivered %d episodes, want 1", len(eps))
	}
	steps := eps[0]
	if len(steps) == 0 {
		t.Fatal("recorded episode is empty")
	}
	if len(steps) > on.Invocations {
		t.Fatalf("recorded %d steps for %d scheduling events", len(steps), on.Invocations)
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].Time < steps[i-1].Time {
			t.Fatalf("steps out of decision order at %d: %v after %v", i, steps[i].Time, steps[i-1].Time)
		}
	}
	for i, rs := range steps {
		if len(rs.Graphs) == 0 {
			t.Fatalf("step %d recorded no graphs", i)
		}
	}
	if snap := srv.svc.Stats(); snap.RecordingOpens != 1 {
		t.Fatalf("RecordingOpens = %d, want 1", snap.RecordingOpens)
	}
}

// TestRecordWithoutSinkIsIgnored pins the wire-compat contract: Record on a
// server without a RecordSink is silently ignored and serves identically.
func TestRecordWithoutSinkIsIgnored(t *testing.T) {
	const executors = 6
	cfg := sim.SparkDefaults(executors)
	jobs := workload.Batch(rand.New(rand.NewSource(3)), 5)
	srv, cli := startSessionServer(t, SessionConfig{Default: "decima", New: agentFactory(executors)})

	local, err := agentFactory(executors)("decima", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.New(cfg, workload.CloneAll(jobs), scheduler.Sim(local), rand.New(rand.NewSource(4))).Run()

	ss := &SessionScheduler{Client: cli, Record: true}
	res := sim.New(cfg, workload.CloneAll(jobs), ss, rand.New(rand.NewSource(4))).Run()
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if runKey(ref) != runKey(res) {
		t.Fatalf("ignored-record session diverges: %s vs %s", runKey(ref), runKey(res))
	}
	if snap := srv.svc.Stats(); snap.RecordingOpens != 0 {
		t.Fatalf("RecordingOpens = %d on a sink-less server", snap.RecordingOpens)
	}
}

// stageCheckpoint publishes params into a scratch registry and installs the
// loaded checkpoint into a fresh staging agent — the exact publish→reload
// flow the serving binary hot-swaps through.
func stageCheckpoint(t *testing.T, template *core.Agent, src *core.Agent, name string) (*core.Agent, *registry.Checkpoint) {
	t.Helper()
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ver, err := reg.Publish(name, src.Params(), "")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := reg.Load(registry.Ref{Name: name, Version: ver})
	if err != nil {
		t.Fatal(err)
	}
	staged := template.Clone(rand.New(rand.NewSource(1)))
	if err := ck.Install(staged); err != nil {
		t.Fatal(err)
	}
	return staged, ck
}

// TestSwapIdenticalWeightsIsNoOp is the hot-swap half of the equivalence
// bar: swapping every live session onto a staged checkpoint holding the
// *identical* weights mid-run must be a bitwise no-op on the schedule. Any
// state the swap would disturb beyond parameter values — mirrors, embedding
// caches going stale the wrong way, RNG streams — would shift the noisy run.
func TestSwapIdenticalWeightsIsNoOp(t *testing.T) {
	const executors = 8
	cfg := sim.SparkDefaults(executors)
	jobs := workload.Batch(rand.New(rand.NewSource(11)), 6)
	base := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(77)))
	base.Greedy = false // sampled: any perturbation changes the draws

	srv, cli := startSessionServer(t, SessionConfig{Default: "decima", New: cloneFactory(base)})
	staged, ck := stageCheckpoint(t, base, base, "same")

	run := func(swapAt int) *sim.Result {
		n := 0
		ss := &SessionScheduler{Client: cli, Seed: 21}
		wrapped := sim.SchedulerFunc(func(st *sim.State) *sim.Action {
			n++
			if n == swapAt {
				if got := srv.svc.SwapAgents(staged, ck.Name, ck.Version); got < 1 {
					t.Errorf("swap reached %d sessions", got)
				}
			}
			return ss.Schedule(st)
		})
		res := sim.New(cfg, workload.CloneAll(jobs), wrapped, rand.New(rand.NewSource(13))).Run()
		if err := ss.Close(); err != nil {
			t.Fatal(err)
		}
		return res
	}

	ref := run(0) // never fires
	if ref.Invocations < 4 {
		t.Fatalf("reference run too short (%d events)", ref.Invocations)
	}
	swapped := run(ref.Invocations / 2)
	if runKey(ref) != runKey(swapped) {
		t.Fatalf("identical-weights hot-swap changed the schedule:\n  ref     %s\n  swapped %s", runKey(ref), runKey(swapped))
	}
	snap := srv.svc.Stats()
	if snap.Swaps != 1 {
		t.Fatalf("Swaps = %d, want 1", snap.Swaps)
	}
	if snap.ModelName != "same" || snap.ModelVersion != 1 {
		t.Fatalf("served model = %q@%d, want same@1", snap.ModelName, snap.ModelVersion)
	}
}

// TestHotSwapUnderFire swaps parameters back and forth between two staged
// registry checkpoints while 16 concurrent sampled sessions decide. The
// invariants: every run completes (a swap never wedges or drops a session),
// and under -race (make race) the sweep's locking is clean.
func TestHotSwapUnderFire(t *testing.T) {
	const executors = 6
	const sessions = 16
	base := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(77)))
	base.Greedy = false

	// Two parameter sets staged through the registry round-trip: A is base's
	// weights, B a different initialisation.
	other := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(177)))
	stagedA, ckA := stageCheckpoint(t, base, base, "model-a")
	stagedB, ckB := stageCheckpoint(t, base, other, "model-b")

	srv, cli := startSessionServer(t, SessionConfig{
		Default: "decima",
		New:     cloneFactory(base),
	})

	// Swap loop: alternate the two staged models while the sessions run.
	done := make(chan struct{})
	swapperDone := make(chan struct{})
	go func() {
		defer close(swapperDone)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if i%2 == 0 {
				srv.svc.SwapAgents(stagedA, ckA.Name, ckA.Version)
			} else {
				srv.svc.SwapAgents(stagedB, ckB.Name, ckB.Version)
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for k := 0; k < sessions; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var rpcErr error
			ss := &SessionScheduler{Client: cli, Seed: int64(30 + k), OnError: func(e error) { rpcErr = e }}
			defer ss.Close()
			jobs := workload.Batch(rand.New(rand.NewSource(int64(40+k))), 3)
			res := sim.New(sim.SparkDefaults(executors), jobs, ss, rand.New(rand.NewSource(int64(k)))).Run()
			if rpcErr != nil {
				errs <- rpcErr
				return
			}
			if res.Unfinished != 0 || res.Deadlock {
				errs <- fmt.Errorf("session %d: unfinished=%d deadlock=%v", k, res.Unfinished, res.Deadlock)
			}
		}(k)
	}
	wg.Wait()
	close(done)
	<-swapperDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := srv.svc.Stats()
	if snap.Swaps < 2 {
		t.Fatalf("only %d swaps happened under fire", snap.Swaps)
	}
	t.Logf("under fire: %d swaps over %d events", snap.Swaps, snap.Events)
}
