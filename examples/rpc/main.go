// RPC integration (the §6 scenario): start a scheduling service
// in-process, then drive a cluster simulation against it over TCP, exactly
// as a Spark master would consult the agent on every scheduling event.
//
// The driver uses the session protocol — OpenSession once, then one
// O(delta) Event per scheduling event against the server's persistent
// cluster mirror (which keeps the agent's embedding cache warm) — and then
// repeats the run with the same agent in-process to show the served
// schedule is identical.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/rpcsvc"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	const executors = 8

	// The service side: session-serving, minting one agent clone per
	// session from a shared base (as cmd/decima-server does).
	base := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(1)))
	srv, err := rpcsvc.ListenAndServeSessions("127.0.0.1:0", rpcsvc.SessionConfig{
		Default: "decima",
		New: func(name string, seed int64) (scheduler.Scheduler, error) {
			return scheduler.New(name, scheduler.Options{Executors: executors, Seed: seed, Agent: base})
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("decima service listening on %s\n", srv.Addr())

	// The cluster side: a simulated Spark master that asks the remote
	// service what to run at every scheduling event.
	cli, err := rpcsvc.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	jobs := workload.Batch(rand.New(rand.NewSource(2)), 6)

	var rpcErrs int
	session := &rpcsvc.SessionScheduler{Client: cli, OnError: func(error) { rpcErrs++ }}
	res := sim.New(sim.SparkDefaults(executors), workload.CloneAll(jobs), session, rand.New(rand.NewSource(3))).Run()
	if err := session.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session protocol:   %d jobs, avg JCT %.1f s, makespan %.1f s, %d events, %d rpc errors\n",
		len(res.Completed), res.AvgJCT(), res.Makespan, res.Invocations, rpcErrs)

	// Same run with the same agent deciding in-process.
	local, err := scheduler.New("decima", scheduler.Options{Executors: executors, Agent: base})
	if err != nil {
		log.Fatal(err)
	}
	res2 := sim.New(sim.SparkDefaults(executors), workload.CloneAll(jobs), scheduler.Sim(local), rand.New(rand.NewSource(3))).Run()
	fmt.Printf("in-process agent:   %d jobs, avg JCT %.1f s, makespan %.1f s, %d events\n",
		len(res2.Completed), res2.AvgJCT(), res2.Makespan, res2.Invocations)

	if res.AvgJCT() != res2.AvgJCT() || res.Makespan != res2.Makespan {
		log.Fatal("served and in-process runs diverged — they must produce identical schedules")
	}
	fmt.Println("served and in-process runs produced the identical schedule")
	if res.Unfinished > 0 || res2.Unfinished > 0 {
		log.Fatalf("jobs unfinished: %d / %d", res.Unfinished, res2.Unfinished)
	}
}
