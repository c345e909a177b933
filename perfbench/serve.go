package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/rpcsvc"
	"repro/internal/scheduler"
	"repro/internal/sim"
)

// The serving workloads: closed-loop cluster schedulers (one sim.Sim each)
// asking replicas for every decision over loopback TCP, directly or through
// the fleet router, all inside this process.

// topology is the shape of one serving deployment.
type topology struct {
	replicas int
	router   bool // sessions reach the replicas through a fleet router
	sessions int  // concurrent closed-loop sessions
	conns    int  // client connections the sessions share
}

// Stacked forwards observed through core.BatchAudit, over the whole
// process. Deltas around a phase give that phase's batching.
var batchCalls, batchItems atomic.Int64

func init() {
	core.BatchAudit = func(agents []*core.Agent) {
		batchCalls.Add(1)
		batchItems.Add(int64(len(agents)))
	}
}

// deployment is a running set of replicas, optional router and client
// connections.
type deployment struct {
	top     topology
	servers []*rpcsvc.Server
	rt      *fleet.Router
	front   *fleet.Server
	clients []*rpcsvc.Client
	wire    wireCounter
}

// deploy starts the replicas (each serving clones of model), the router if
// the topology has one, and the client connections.
func deploy(top topology, model *core.Agent) (*deployment, error) {
	d := &deployment{top: top}
	cfg := rpcsvc.SessionConfig{
		Default: "decima",
		New: func(name string, seed int64) (scheduler.Scheduler, error) {
			return model.Clone(rand.New(rand.NewSource(seed))), nil
		},
	}
	for i := 0; i < top.replicas; i++ {
		cfg.ReplicaID = fmt.Sprintf("r%d", i)
		srv, err := rpcsvc.ListenAndServeSessions("127.0.0.1:0", cfg)
		if err != nil {
			d.close()
			return nil, err
		}
		d.servers = append(d.servers, srv)
	}
	target := d.servers[0].Addr()
	if top.router {
		d.rt = fleet.New(fleet.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		for _, srv := range d.servers {
			if err := d.rt.AddReplica(srv.Service().ReplicaID(), srv.Addr(), "", 0); err != nil {
				d.close()
				return nil, err
			}
		}
		d.rt.Start()
		front, err := fleet.ListenAndServe("127.0.0.1:0", d.rt)
		if err != nil {
			d.close()
			return nil, err
		}
		d.front = front
		target = front.Addr()
	}
	for i := 0; i < top.conns; i++ {
		cli, err := rpcsvc.DialWith(target, d.wire.dial)
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, cli)
	}
	return d, nil
}

// close stops everything deploy started and waits for it.
func (d *deployment) close() {
	for _, c := range d.clients {
		c.Close()
	}
	if d.front != nil {
		d.front.Close()
	}
	if d.rt != nil {
		d.rt.Stop()
	}
	for _, s := range d.servers {
		s.Close()
	}
}

// timedScheduler wraps a session's scheduler: it times every decision as
// the cluster scheduler sees it and records a span per decision when
// traced.
type timedScheduler struct {
	inner  sim.Scheduler
	until  time.Time // decisions finishing later fall outside the window
	rec    *recorder
	parent int32
	run    int64

	errs               int // failed attempts seen by OnError
	seq                int64
	runs               int64
	events, failed     int64
	inWindow           int64
	total              time.Duration // over all decisions
	lat                []time.Duration
	windowRuns         float64 // runs, counted by their share of in-window decisions
	runEvents, runInWd int64
}

func (t *timedScheduler) Schedule(s *sim.State) *sim.Action {
	t.seq++
	sp := t.rec.begin("client.schedule", t.parent, t.run, t.seq)
	e0 := t.errs
	t0 := time.Now()
	act := t.inner.Schedule(s)
	t1 := time.Now()
	t.rec.end(sp)
	d := t1.Sub(t0)
	t.events++
	t.runEvents++
	t.total += d
	if t.errs != e0 {
		t.failed++
	}
	if !t1.After(t.until) {
		t.inWindow++
		t.runInWd++
		t.lat = append(t.lat, d)
	}
	return act
}

// servePhase is what one stretch of closed-loop serving produced.
type servePhase struct {
	start, until time.Time
	events       int64 // every decision made
	inWindow     int64 // decisions finished inside the window
	failed       int64 // decisions that erred, plus every decision of a run failing the oracle
	runs         int64
	windowRuns   float64
	total        time.Duration // client-observed time over all decisions
	lat          []time.Duration
	// attempts and answered are the sessions' RPC attempts and answered
	// decisions (rpcsvc.ClientStatsSnapshot); retries make them differ.
	attempts, answered uint64
}

// serve runs the deployment's sessions in a closed loop until the window
// ends: each session replays its share of seqs back to back, one new
// server session per run, and every run is checked against its reference.
// A session finishes the run in progress when the window closes, and runs
// at least minRuns runs. Oracle failures are recorded on o.
func (d *deployment) serve(cfg sim.Config, seqs []*sequence, window time.Duration, minRuns int, tr *trace, o *outcome) servePhase {
	ph := servePhase{start: time.Now()}
	ph.until = ph.start.Add(window)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < d.top.sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := tr.recorder()
			tw := &timedScheduler{until: ph.until, rec: rec}
			var attempts, answered uint64
			for run := 0; run < minRuns || time.Now().Before(ph.until); run++ {
				id := i + run*d.top.sessions
				seq := seqs[id%len(seqs)]
				ss := &rpcsvc.SessionScheduler{
					Client:  d.clients[i%len(d.clients)],
					Seed:    sessionSeed,
					Key:     "cluster-" + strconv.Itoa(i),
					OnError: func(error) { tw.errs++ },
				}
				tw.inner, tw.run, tw.seq = ss, int64(id), 0
				tw.runEvents, tw.runInWd = 0, 0
				tw.parent = rec.begin("sim.run", -1, int64(id), 0)
				res := simulate(cfg, seq, tw)
				rec.end(tw.parent)
				closeErr := ss.Close()
				cs := ss.Stats()
				attempts += cs.Attempts
				answered += cs.Events
				tw.runs++
				tw.windowRuns += ratio(float64(tw.runInWd), float64(tw.runEvents))
				err := sameSchedule(res, seq.ref)
				if err == nil && closeErr != nil {
					err = fmt.Errorf("close: %w", closeErr)
				}
				if err != nil {
					mu.Lock()
					o.fail("session %d run %d (sequence %d): %v", i, run, id%len(seqs), err)
					mu.Unlock()
					tw.failed += tw.runEvents
				}
			}
			mu.Lock()
			defer mu.Unlock()
			ph.events += tw.events
			ph.inWindow += tw.inWindow
			ph.failed += min(tw.failed, tw.events)
			ph.runs += tw.runs
			ph.windowRuns += tw.windowRuns
			ph.total += tw.total
			ph.lat = append(ph.lat, tw.lat...)
			ph.attempts += attempts
			ph.answered += answered
		}(i)
	}
	wg.Wait()
	return ph
}

// counters is a reading of every serving-side counter the benchmark uses,
// taken from public stats, the router's exposition page and the wire
// counter. Differences of two readings give one phase's figures.
type counters struct {
	decideN                float64
	decideSum              float64 // seconds
	events                 float64
	shed, seqGaps, evicted float64
	fwdN, fwdSum           float64 // router forward histogram, seconds
	migrations, routerShed float64
	replicaEvents          []float64
	wireOut, wireIn        float64
	batchCalls, batchItems float64
}

func (d *deployment) counters() counters {
	var c counters
	for _, srv := range d.servers {
		s := srv.Stats()
		c.decideN += float64(s.Decide.Count)
		c.decideSum += s.Decide.Sum
		c.events += float64(s.Events)
		c.shed += float64(s.Shed + s.DeadlineMiss)
		c.seqGaps += float64(s.SeqGaps)
		c.evicted += float64(s.EvictedLRU + s.EvictedIdle)
	}
	if d.rt != nil {
		var buf bytes.Buffer
		d.rt.WriteProm(&buf)
		p := parseProm(buf.String())
		c.fwdN = p["fleet_replica_decide_latency_seconds_count"]
		c.fwdSum = p["fleet_replica_decide_latency_seconds_sum"]
		c.migrations = p["fleet_migrations_total"]
		c.routerShed = p["fleet_shed_total"]
		for _, r := range d.rt.Info().Replicas {
			c.replicaEvents = append(c.replicaEvents, float64(r.Events))
		}
	}
	c.wireOut = float64(d.wire.out.Load())
	c.wireIn = float64(d.wire.in.Load())
	c.batchCalls = float64(batchCalls.Load())
	c.batchItems = float64(batchItems.Load())
	return c
}

// parseProm sums every sample of a Prometheus text page by metric name,
// across label sets.
func parseProm(page string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(page))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out
}

// servingLayers sets the rpcsvc.* and fleet.* metrics of one phase from the
// counter readings around it and the client-side totals.
func servingLayers(ph servePhase, a, b counters, m metricSet, withFleet bool) {
	clientUs := ratio(us(ph.total), float64(ph.events))
	decideUs := ratio(b.decideSum-a.decideSum, b.decideN-a.decideN) * 1e6
	m.set("rpcsvc.server.decide_us", decideUs)
	m.set("rpcsvc.overhead_us", clientUs-decideUs)
	m.set("rpcsvc.wire_out_bytes_per_event", ratio(b.wireOut-a.wireOut, float64(ph.events)))
	m.set("rpcsvc.wire_in_bytes_per_event", ratio(b.wireIn-a.wireIn, float64(ph.events)))
	m.set("rpcsvc.batched_share", ratio(b.batchItems-a.batchItems, b.events-a.events))
	m.set("rpcsvc.batch_size_mean", ratio(b.batchItems-a.batchItems, b.batchCalls-a.batchCalls))
	m.set("rpcsvc.client.attempts_per_event", ratio(float64(ph.attempts), float64(ph.answered)))
	m.set("rpcsvc.shed", b.shed-a.shed+b.routerShed-a.routerShed)
	m.set("rpcsvc.seq_gaps", b.seqGaps-a.seqGaps)
	m.set("rpcsvc.evictions", b.evicted-a.evicted)
	if !withFleet {
		return
	}
	fwdUs := ratio(b.fwdSum-a.fwdSum, b.fwdN-a.fwdN) * 1e6
	m.set("fleet.forward_us", fwdUs)
	m.set("fleet.self_us", clientUs-fwdUs)
	m.set("fleet.migrations", b.migrations-a.migrations)
	var sum, top float64
	for i, e := range b.replicaEvents {
		de := e
		if i < len(a.replicaEvents) {
			de -= a.replicaEvents[i]
		}
		sum += de
		top = max(top, de)
	}
	m.set("fleet.replica_share_max", ratio(top, sum))
}
