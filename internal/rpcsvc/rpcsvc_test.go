package rpcsvc

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRemoteFIFOMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	jobs := workload.Batch(rng, 6)
	cfg := sim.SparkDefaults(8)

	local := sim.New(cfg, workload.CloneAll(jobs), sched.NewFIFO(), rand.New(rand.NewSource(2))).Run()

	_, cli := startSessionServer(t, SessionConfig{Default: "fifo"})
	ss := &SessionScheduler{Client: cli}
	remote := sim.New(cfg, workload.CloneAll(jobs), ss, rand.New(rand.NewSource(2))).Run()
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	if local.AvgJCT() != remote.AvgJCT() || local.Makespan != remote.Makespan {
		t.Fatalf("remote FIFO diverges: %v/%v vs %v/%v",
			local.AvgJCT(), local.Makespan, remote.AvgJCT(), remote.Makespan)
	}
}

func TestRemoteDecimaAgentCompletes(t *testing.T) {
	agent := core.New(core.DefaultConfig(6), rand.New(rand.NewSource(3)))
	agent.Greedy = true
	_, cli := startSessionServer(t, SessionConfig{Default: "decima", New: cloneFactory(agent)})

	rng := rand.New(rand.NewSource(4))
	jobs := workload.Batch(rng, 4)
	ss := &SessionScheduler{Client: cli}
	defer ss.Close()
	res := sim.New(sim.SparkDefaults(6), jobs, ss, rng).Run()
	if res.Deadlock || res.Unfinished != 0 {
		t.Fatalf("remote agent failed: unfinished=%d deadlock=%v", res.Unfinished, res.Deadlock)
	}
}

func TestStateRoundTrip(t *testing.T) {
	// Conversion through the wire form must preserve everything schedulers
	// look at.
	rng := rand.New(rand.NewSource(5))
	jobs := workload.Batch(rng, 3)
	var captured *sim.State
	probe := sim.SchedulerFunc(func(s *sim.State) *sim.Action {
		if captured == nil && len(s.Jobs) == 3 {
			captured = s
		}
		for _, j := range s.Jobs {
			for _, st := range j.Stages {
				if st.Runnable() && s.FreeCount(st) > 0 {
					return &sim.Action{Stage: st, Limit: s.TotalExecutors, Class: -1}
				}
			}
		}
		return nil
	})
	sim.New(sim.SparkDefaults(5), jobs, probe, rng).Run()
	if captured == nil {
		t.Fatal("no state captured")
	}
	// Ship the state as a fresh session's first event — every job in full
	// wire form (jobInfo), materialised server-side by jobStateFromInfo —
	// and capture the state the server's scheduler is handed. MoveDelay
	// rides on the Open request, so the session starts with it.
	var back *sim.State
	sess := &session{
		sched:     scheduler.Func(func(s *sim.State) (*sim.Action, error) { back = s; return nil, nil }),
		moveDelay: captured.MoveDelay,
		jobs:      make(map[int]*sim.JobState),
		execs:     make(map[int]*sim.Executor),
	}
	client := &Session{shadow: make(map[int]*shadowJob)}
	if _, err := sess.event(client.delta(captured), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if back.Time != captured.Time || back.JobSeconds != captured.JobSeconds ||
		back.TotalExecutors != captured.TotalExecutors || back.MoveDelay != captured.MoveDelay {
		t.Fatal("scalar state fields lost")
	}
	if len(back.Jobs) != len(captured.Jobs) {
		t.Fatal("jobs lost")
	}
	for i, j := range captured.Jobs {
		bj := back.Jobs[i]
		if bj.Job.ID != j.Job.ID || bj.Executors != j.Executors || bj.Limit != j.Limit {
			t.Fatal("job fields lost")
		}
		if len(bj.RunnableStages()) != len(j.RunnableStages()) {
			t.Fatal("runnable set changed")
		}
		for si, st := range j.Stages {
			bs := bj.Stages[si]
			if bs.TasksDone != st.TasksDone || bs.TasksLaunched != st.TasksLaunched ||
				bs.ParentsDone != st.ParentsDone || bs.Completed != st.Completed {
				t.Fatal("stage counters lost")
			}
			if len(bs.Stage.Parents) != len(st.Stage.Parents) {
				t.Fatal("adjacency lost")
			}
		}
	}
	if len(back.FreeExecutors) != len(captured.FreeExecutors) {
		t.Fatal("executors lost")
	}
	// Locality must survive: same set of (exec, local-job) pairs.
	for i, e := range captured.FreeExecutors {
		be := back.FreeExecutors[i]
		if be.ID != e.ID || be.Class != e.Class || be.Mem != e.Mem {
			t.Fatal("executor fields lost")
		}
		wantLocal := e.BoundTo != nil && jobInState(captured, e.BoundTo)
		gotLocal := be.BoundTo != nil
		if wantLocal != gotLocal {
			t.Fatal("locality lost")
		}
	}
}

func jobInState(s *sim.State, j *sim.JobState) bool {
	for _, x := range s.Jobs {
		if x == j {
			return true
		}
	}
	return false
}

func TestActionFromResponseErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	jobs := workload.Batch(rng, 1)
	js := jobStateFromInfo(&JobInfo{
		ID: jobs[0].ID,
		Stages: []StageInfo{{
			ID: 0, NumTasks: 1, TaskDuration: 1, CPUReq: 1,
		}},
	})
	st := &sim.State{TotalExecutors: 2, Jobs: []*sim.JobState{js}}
	if _, err := ActionFromResponse(&ScheduleResponse{HasAction: true, JobID: 999, StageID: 0}, st); err == nil {
		t.Fatal("unknown job accepted")
	}
	if _, err := ActionFromResponse(&ScheduleResponse{HasAction: true, JobID: st.Jobs[0].Job.ID, StageID: 5}, st); err == nil {
		t.Fatal("out-of-range stage accepted")
	}
	act, err := ActionFromResponse(&ScheduleResponse{HasAction: false}, st)
	if err != nil || act != nil {
		t.Fatal("no-action response mishandled")
	}
}

// TestConcurrentClients drives several full runs at once, each over its own
// connection and session, and requires every run to complete.
func TestConcurrentClients(t *testing.T) {
	srv, err := ListenAndServeSessions("127.0.0.1:0", SessionConfig{Default: "fifo"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cli, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			var rpcErr error
			ss := &SessionScheduler{Client: cli, OnError: func(e error) { rpcErr = e }}
			defer ss.Close()
			rng := rand.New(rand.NewSource(seed))
			jobs := workload.Batch(rng, 3)
			res := sim.New(sim.SparkDefaults(4), jobs, ss, rng).Run()
			if rpcErr != nil {
				errs <- fmt.Errorf("seed %d: %w", seed, rpcErr)
				return
			}
			if res.Unfinished != 0 || res.Deadlock {
				errs <- fmt.Errorf("seed %d: unfinished=%d deadlock=%v", seed, res.Unfinished, res.Deadlock)
			}
		}(int64(c))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestRemoteSchedulerErrorHandling(t *testing.T) {
	srv, err := ListenAndServeSessions("127.0.0.1:0", SessionConfig{Default: "fifo"})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	cli.Close()
	var got error
	// One attempt per event and no fallback: with the service gone every
	// event fails, reaches OnError and declines.
	ss := &SessionScheduler{Client: cli, MaxRetries: -1, OnError: func(e error) { got = e }}
	rng := rand.New(rand.NewSource(7))
	jobs := workload.Batch(rng, 1)
	res := sim.New(sim.SparkDefaults(2), jobs, ss, rng).Run()
	if got == nil {
		t.Fatal("error callback never fired")
	}
	if !res.Deadlock {
		t.Fatal("simulation should deadlock when the service is gone")
	}
}

// TestServerCloseIdempotent closes a server that has served a session twice,
// and requires every goroutine the server and its connection started to
// exit: the goroutine count returns to its value before the listener
// started.
func TestServerCloseIdempotent(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := ListenAndServeSessions("127.0.0.1:0", SessionConfig{Default: "fifo"})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ss := &SessionScheduler{Client: cli}
	rng := rand.New(rand.NewSource(8))
	if res := sim.New(sim.SparkDefaults(2), workload.Batch(rng, 2), ss, rng).Run(); res.Unfinished != 0 {
		t.Fatalf("run before close incomplete: unfinished=%d", res.Unfinished)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	cli.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after Close: %d running, %d before the listener started\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
