package rpcsvc

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// agentFactory mints bit-identical greedy agents (same seed, same
// construction) so in-process and session paths decide with the same
// parameters.
func agentFactory(executors int) func(name string, seed int64) (scheduler.Scheduler, error) {
	return func(name string, seed int64) (scheduler.Scheduler, error) {
		a := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(77)))
		a.Greedy = true
		return a, nil
	}
}

// startSessionServer launches a session-serving service on a random port.
func startSessionServer(t testing.TB, cfg SessionConfig) (*Server, *Client) {
	t.Helper()
	srv, err := ListenAndServeSessions("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

// runKey condenses a run into an exact-comparison fingerprint.
func runKey(r *sim.Result) string {
	return fmt.Sprintf("%v/%v/%v/%d/%d", r.AvgJCT(), r.Makespan, r.JobSeconds, r.Invocations, len(r.Completed))
}

// TestSessionBitIdenticalToStatelessAndLocal extends the inference fast
// path's equivalence bar to the wire: over a full noisy run, the decisions produced through the
// session protocol (server-side mirror, embedding cache ON) are
// bit-identical to the in-process agent — any divergence anywhere in the
// event stream would shift the noise draws and change every downstream
// number. (The name predates the removal of the stateless protocol, whose
// leg this test also used to check.)
func TestSessionBitIdenticalToStatelessAndLocal(t *testing.T) {
	const executors = 8
	cfg := sim.SparkDefaults(executors) // DurationNoise > 0: noisy run
	jobs := workload.Batch(rand.New(rand.NewSource(5)), 7)

	_, cli := startSessionServer(t, SessionConfig{Default: "decima", New: agentFactory(executors)})

	// In-process reference: same construction as the server's factory.
	local, err := agentFactory(executors)("decima", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.New(cfg, workload.CloneAll(jobs), scheduler.Sim(local), rand.New(rand.NewSource(9))).Run()

	ss := &SessionScheduler{Client: cli}
	session := sim.New(cfg, workload.CloneAll(jobs), ss, rand.New(rand.NewSource(9))).Run()
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	if runKey(ref) != runKey(session) {
		t.Fatalf("session diverges from in-process:\n  local   %s\n  session %s", runKey(ref), runKey(session))
	}
	if ref.Unfinished != 0 || ref.Deadlock {
		t.Fatalf("reference run incomplete: unfinished=%d deadlock=%v", ref.Unfinished, ref.Deadlock)
	}
}

// TestSessionHeuristicMatchesLocal runs the same equivalence for a
// heuristic selected by registry name through OpenSession.
func TestSessionHeuristicMatchesLocal(t *testing.T) {
	const executors = 6
	cfg := sim.SparkDefaults(executors)
	jobs := workload.Batch(rand.New(rand.NewSource(15)), 6)

	_, cli := startSessionServer(t, SessionConfig{Default: "decima", New: nil}) // registry fallback

	localS, err := scheduler.New("sjf-cp", scheduler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local := sim.New(cfg, workload.CloneAll(jobs), scheduler.Sim(localS), rand.New(rand.NewSource(2))).Run()

	ss := &SessionScheduler{Client: cli, Name: "sjf-cp"}
	remote := sim.New(cfg, workload.CloneAll(jobs), ss, rand.New(rand.NewSource(2))).Run()
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if runKey(local) != runKey(remote) {
		t.Fatalf("session sjf-cp diverges: %s vs %s", runKey(local), runKey(remote))
	}
}

// TestConcurrentSessions drives N full simulations in parallel, each over
// its own session on one server — the race detector guards the session
// table, per-session locks and the per-session scheduler instances.
func TestConcurrentSessions(t *testing.T) {
	const executors = 6
	_, cli := startSessionServer(t, SessionConfig{Default: "decima", New: agentFactory(executors)})

	const n = 6
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			// Sessions share one client connection: net/rpc multiplexes
			// concurrent calls over it.
			var rpcErr error
			ss := &SessionScheduler{Client: cli, OnError: func(e error) { rpcErr = e }}
			defer ss.Close()
			jobs := workload.Batch(rand.New(rand.NewSource(seed)), 4)
			res := sim.New(sim.SparkDefaults(executors), jobs, ss, rand.New(rand.NewSource(seed))).Run()
			if rpcErr != nil {
				errs <- rpcErr
				return
			}
			if res.Unfinished != 0 || res.Deadlock {
				errs <- fmt.Errorf("seed %d: unfinished=%d deadlock=%v", seed, res.Unfinished, res.Deadlock)
			}
		}(int64(c + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSessionLRUEviction fills the session table past its bound and checks
// that the least recently used sessions are evicted: their next Event fails
// with an unknown-session error while fresher sessions keep serving.
func TestSessionLRUEviction(t *testing.T) {
	const executors = 4
	srv, cli := startSessionServer(t, SessionConfig{
		Default:     "fifo",
		MaxSessions: 2,
		IdleTimeout: -1, // isolate the LRU bound
	})

	open := func() *Session {
		s, err := cli.OpenSession(&OpenRequest{TotalExecutors: executors})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mkState := func(seed int64) *sim.State {
		jobs := workload.Batch(rand.New(rand.NewSource(seed)), 1)
		js := jobStateFromInfo(&JobInfo{ID: jobs[0].ID, Stages: []StageInfo{{ID: 0, NumTasks: 2, TaskDuration: 1, CPUReq: 1}}})
		return &sim.State{
			Jobs:           []*sim.JobState{js},
			FreeExecutors:  []*sim.Executor{{ID: 0, Mem: 1}},
			TotalExecutors: executors,
		}
	}

	s1, s2 := open(), open()
	if _, err := s1.Event(mkState(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Event(mkState(2)); err != nil {
		t.Fatal(err)
	}
	// Opening a third session must evict s1 (least recently used).
	s3 := open()
	if got := srv.Sessions(); got != 2 {
		t.Fatalf("session count after eviction = %d, want 2", got)
	}
	// The eviction is visible in the exported counters: one LRU eviction,
	// no idle sweeps, occupancy matching the live count.
	if st := srv.Stats(); st.EvictedLRU != 1 || st.EvictedIdle != 0 || st.Sessions != 2 || st.Opens != 3 {
		t.Fatalf("stats after LRU eviction = %+v, want EvictedLRU=1 EvictedIdle=0 Sessions=2 Opens=3", st)
	}
	if _, err := s1.Event(mkState(1)); err == nil {
		t.Fatal("evicted session still serves events")
	}
	if _, err := s2.Event(mkState(2)); err != nil {
		t.Fatalf("survivor s2 broken: %v", err)
	}
	if _, err := s3.Event(mkState(3)); err != nil {
		t.Fatalf("fresh s3 broken: %v", err)
	}
}

// TestSessionEvictionUnderLoad hammers a tiny session table from many
// goroutines that keep opening sessions and driving events, so evictions
// race live traffic; the invariants are "no session-table corruption" (race
// detector), "table never exceeds its bound", and "errors are only ever the
// documented unknown-session kind, after which reopening works".
func TestSessionEvictionUnderLoad(t *testing.T) {
	const executors = 4
	srv, cli := startSessionServer(t, SessionConfig{
		Default:     "fifo",
		MaxSessions: 3,
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
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sess, err := cli.OpenSession(&OpenRequest{TotalExecutors: executors})
				if err != nil {
					fails <- err
					return
				}
				// Drive a few events; eviction by a concurrent open is
				// expected and must surface as a clean error.
				for e := 0; e < 3; e++ {
					if _, err := sess.Event(st()); err != nil {
						break // evicted: reopen on next iteration
					}
				}
			}
		}()
	}
	wg.Wait()
	close(fails)
	for err := range fails {
		t.Fatal(err)
	}
	if got := srv.Sessions(); got > 3 {
		t.Fatalf("session table exceeded bound: %d > 3", got)
	}
}

// TestEventOnResetSessionFailsCleanly pins the eviction race down at the
// session level: an event that looked its session up just before eviction
// reset it must get an error, not a nil-map panic (which would kill the
// whole serving process — net/rpc does not recover handler panics).
func TestEventOnResetSessionFailsCleanly(t *testing.T) {
	fifo, err := scheduler.New("fifo", scheduler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess := &session{
		sched: fifo,
		total: 2,
		jobs:  make(map[int]*sim.JobState),
		execs: make(map[int]*sim.Executor),
	}
	sess.reset() // the eviction wins the race
	_, err = sess.event(&EventRequest{
		Seq:           1,
		NewJobs:       []JobInfo{{ID: 1, Stages: []StageInfo{{ID: 0, NumTasks: 1, TaskDuration: 1, CPUReq: 1}}}},
		Order:         []int{1},
		FreeExecutors: []ExecutorInfo{{ID: 0, Mem: 1, LocalJob: -1}},
	}, time.Time{})
	if err == nil {
		t.Fatal("event on a reset session succeeded")
	}
}

// TestInvalidEventLeavesSessionUsable checks that a rejected event mutates
// nothing: the same session must accept the corrected request with the
// same seq afterwards (validation before mutation, seq bumped last).
func TestInvalidEventLeavesSessionUsable(t *testing.T) {
	_, cli := startSessionServer(t, SessionConfig{Default: "fifo"})
	sess, err := cli.OpenSession(&OpenRequest{TotalExecutors: 2})
	if err != nil {
		t.Fatal(err)
	}
	good := func(seq uint64) *EventRequest {
		return &EventRequest{
			SID:           sess.SID(),
			Seq:           seq,
			NewJobs:       []JobInfo{{ID: 1, Stages: []StageInfo{{ID: 0, NumTasks: 2, TaskDuration: 1, CPUReq: 1}}}},
			Order:         []int{1},
			FreeExecutors: []ExecutorInfo{{ID: 0, Mem: 1, LocalJob: -1}},
		}
	}
	bad := good(1)
	bad.Deltas = []JobDelta{{ID: 1, Stages: []StageDelta{{Stage: 99}}}} // out of range
	var resp EventResponse
	if err := cli.rpc.Call("Decima.Event", bad, &resp); err == nil {
		t.Fatal("invalid event accepted")
	}
	// Same seq, corrected body: must now succeed — the bad request may not
	// have bumped seq or inserted job 1.
	if err := cli.rpc.Call("Decima.Event", good(1), &resp); err != nil {
		t.Fatalf("session wedged after rejected event: %v", err)
	}
}

// evictOnce forces the wrapped session's eviction mid-run by opening a
// throwaway session on a MaxSessions=1 server.
type evictOnce struct {
	inner *SessionScheduler
	cli   *Client
	at    int
	n     int
	t     *testing.T
}

func (w *evictOnce) Schedule(s *sim.State) *sim.Action {
	w.n++
	if w.n == w.at {
		if _, err := w.cli.OpenSession(&OpenRequest{TotalExecutors: s.TotalExecutors}); err != nil {
			w.t.Error(err)
		}
	}
	return w.inner.Schedule(s)
}

// TestSessionSchedulerReopensAfterEviction verifies the client recovers
// from a server-side eviction: the event after the eviction fails once,
// the handle reopens with a fresh shadow, and the run still completes.
func TestSessionSchedulerReopensAfterEviction(t *testing.T) {
	const executors = 6
	_, cli := startSessionServer(t, SessionConfig{
		Default:     "fifo",
		MaxSessions: 1,
		IdleTimeout: -1,
	})
	errs := 0
	inner := &SessionScheduler{Client: cli, OnError: func(error) { errs++ }}
	defer inner.Close()
	jobs := workload.Batch(rand.New(rand.NewSource(21)), 5)
	res := sim.New(sim.SparkDefaults(executors), jobs, &evictOnce{inner: inner, cli: cli, at: 10, t: t}, rand.New(rand.NewSource(22))).Run()
	if errs == 0 {
		t.Fatal("eviction never surfaced — test exercised nothing")
	}
	if res.Deadlock || res.Unfinished != 0 {
		t.Fatalf("run did not recover from eviction: unfinished=%d deadlock=%v (errors %d)", res.Unfinished, res.Deadlock, errs)
	}
}

// TestSessionIdleEviction checks the idle sweep: a session untouched past
// the timeout is evicted by the next table access.
func TestSessionIdleEviction(t *testing.T) {
	srv, cli := startSessionServer(t, SessionConfig{
		Default:     "fifo",
		IdleTimeout: 30 * time.Millisecond,
	})
	s1, err := cli.OpenSession(&OpenRequest{TotalExecutors: 2})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	// Any table access sweeps; a fresh open is the natural trigger.
	if _, err := cli.OpenSession(&OpenRequest{TotalExecutors: 2}); err != nil {
		t.Fatal(err)
	}
	if got := srv.Sessions(); got != 1 {
		t.Fatalf("idle session not swept: %d live, want 1", got)
	}
	if st := srv.Stats(); st.EvictedIdle < 1 || st.EvictedLRU != 0 {
		t.Fatalf("stats after idle sweep = %+v, want EvictedIdle>=1 EvictedLRU=0", st)
	}
	js := jobStateFromInfo(&JobInfo{ID: 1, Stages: []StageInfo{{ID: 0, NumTasks: 1, TaskDuration: 1, CPUReq: 1}}})
	st := &sim.State{Jobs: []*sim.JobState{js}, FreeExecutors: []*sim.Executor{{ID: 0, Mem: 1}}, TotalExecutors: 2}
	if _, err := s1.Event(st); err == nil {
		t.Fatal("idle-evicted session still serves events")
	}
}

// TestSessionSeqOrdering rejects replayed and gapped event sequence
// numbers.
func TestSessionSeqOrdering(t *testing.T) {
	_, cli := startSessionServer(t, SessionConfig{Default: "fifo"})
	sess, err := cli.OpenSession(&OpenRequest{TotalExecutors: 2})
	if err != nil {
		t.Fatal(err)
	}
	var resp EventResponse
	ev := &EventRequest{SID: sess.SID(), Seq: 2} // gap: first event must be 1
	if err := cli.rpc.Call("Decima.Event", ev, &resp); err == nil {
		t.Fatal("gapped seq accepted")
	}
	ev.Seq = 1
	if err := cli.rpc.Call("Decima.Event", ev, &resp); err != nil {
		t.Fatal(err)
	}
	if err := cli.rpc.Call("Decima.Event", ev, &resp); err == nil {
		t.Fatal("replayed seq accepted")
	}
}

// TestCloseReleasesSession verifies Close frees the slot and is idempotent.
func TestCloseReleasesSession(t *testing.T) {
	srv, cli := startSessionServer(t, SessionConfig{Default: "fifo"})
	sess, err := cli.OpenSession(&OpenRequest{TotalExecutors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Sessions(); got != 1 {
		t.Fatalf("open sessions = %d, want 1", got)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Sessions(); got != 0 {
		t.Fatalf("open sessions after close = %d, want 0", got)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("second close errored: %v", err)
	}
}
