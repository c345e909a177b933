package main

import (
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Per-layer probes: fixed amounts of work through one layer's public
// functions, on the workload's own inputs, run after the timed phases of a
// traced run.

// cacheKey is everything a job's cached embedding depends on, read from the
// public simulator state: the job's version, the free-executor count, the
// pool size and whether a free executor is local to the job.
type cacheKey struct {
	version     uint64
	free, total int
	local       bool
}

// rekeyTracker measures how often a job's embedding key changes between
// consecutive decisions: a job seen for the first time, or seen with a key
// different from its previous one, is a rekey.
type rekeyTracker struct {
	last         map[*sim.JobState]cacheKey
	jobs, rekeys int64
}

func (r *rekeyTracker) observe(s *sim.State) {
	if r.last == nil {
		r.last = make(map[*sim.JobState]cacheKey)
	}
	for _, j := range s.Jobs {
		k := cacheKey{version: j.Version, free: len(s.FreeExecutors), total: s.TotalExecutors}
		for _, e := range s.FreeExecutors {
			if e.LocalTo(j) {
				k.local = true
				break
			}
		}
		if prev, ok := r.last[j]; !ok || prev != k {
			r.rekeys++
		}
		r.last[j] = k
		r.jobs++
	}
}

func (r *rekeyTracker) share() float64 { return ratio(float64(r.rekeys), float64(r.jobs)) }

// candidates counts the stages a decision chooses among: runnable stages
// with at least one free executor that fits them.
func candidates(s *sim.State) int {
	n := 0
	for _, j := range s.Jobs {
		for _, st := range j.Stages {
			if st.Runnable() && s.FreeCount(st) > 0 {
				n++
			}
		}
	}
	return n
}

// probeScheduler times each Agent.Schedule call of an in-process replay and
// optionally measures the state it was given.
type probeScheduler struct {
	agent   *core.Agent
	decide  time.Duration
	calls   int64
	measure bool
	jobs    int64
	cands   int64
	rekey   rekeyTracker
	// forward, when set, also times a full GNN inference forward over the
	// event's graphs (outside the decision's timing).
	forward    bool
	fwd        time.Duration
	fwdScratch nn.Scratch
}

func (p *probeScheduler) Schedule(s *sim.State) *sim.Action {
	if p.measure {
		p.jobs += int64(len(s.Jobs))
		p.cands += int64(candidates(s))
		p.rekey.observe(s)
	}
	if p.forward {
		graphs := make([]*gnn.Graph, len(s.Jobs))
		for i, j := range s.Jobs {
			graphs[i] = gnn.NewGraph(j.Job, p.agent.Features(s, j))
		}
		p.fwdScratch.Reset()
		t0 := time.Now()
		p.agent.GNN.ForwardInference(graphs, &p.fwdScratch)
		p.fwd += time.Since(t0)
	}
	t0 := time.Now()
	act := p.agent.Schedule(s)
	p.decide += time.Since(t0)
	p.calls++
	return act
}

// coreProbe replays seqs in process twice: with the embedding cache (timing
// decisions and measuring the states decided on), then without it (timing
// decisions and a full GNN forward per event). Both replays must reproduce
// the reference runs.
func coreProbe(cfg sim.Config, model *core.Agent, seqs []*sequence, m metricSet, o *outcome) {
	cached := &probeScheduler{measure: true}
	nocache := &probeScheduler{forward: true}
	for i, seq := range seqs {
		for _, p := range []*probeScheduler{cached, nocache} {
			p.agent = model.Clone(rand.New(rand.NewSource(sessionSeed)))
			p.agent.NoCache = p == nocache
			if err := sameSchedule(simulate(cfg, seq, p), seq.ref); err != nil {
				o.fail("core probe, sequence %d, NoCache=%v: %v", i, p.agent.NoCache, err)
			}
		}
	}
	m.set("core.decide_us", ratio(us(cached.decide), float64(cached.calls)))
	m.set("core.decide_nocache_us", ratio(us(nocache.decide), float64(nocache.calls)))
	m.set("core.jobs_per_event", ratio(float64(cached.jobs), float64(cached.calls)))
	m.set("core.cands_per_event", ratio(float64(cached.cands), float64(cached.calls)))
	m.set("core.rekey_share", cached.rekey.share())
	m.set("gnn.forward_us", ratio(us(nocache.fwd), float64(nocache.calls)))
}

// Training settings shared by the train workload and the rl probe.
const (
	episodesPerIter = 8
	trainHorizon    = 400
)

// trainConfig is the rl configuration of the train workload: a fixed
// horizon and one rollout worker per CPU.
func trainConfig(workers int) rl.Config {
	c := rl.DefaultConfig()
	c.EpisodesPerIter = episodesPerIter
	c.NoCurriculum = true
	c.MaxHorizon = trainHorizon
	c.Workers = workers
	return c
}

// cycle is a job source that hands out seqs in order, ignoring the
// trainer's generator: the trainer sees only the benchmark's inputs.
func cycle(seqs []*sequence) rl.JobSource {
	next := 0
	return func(*rand.Rand) []*dag.Job {
		s := seqs[next%len(seqs)]
		next++
		return s.jobs
	}
}

// rlProbe splits training into its parts by repeating them through public
// calls: an inference rollout recording replay steps (as the trainer's
// workers do), the batched replay forward and backward over those steps,
// and an Adam step. It also times a few whole trainer iterations when
// iterations is positive.
func rlProbe(cfg sim.Config, model *core.Agent, seqs []*sequence, episodes, iterations, workers int, m metricSet) {
	agent := model.Clone(rand.New(rand.NewSource(1)))
	agent.Greedy = false
	params := agent.Params()
	var rollout, replay time.Duration
	var steps int
	for e := 0; e < episodes; e++ {
		seq := seqs[e%len(seqs)]
		var recs []core.ReplayStep
		var arena []*gnn.Graph
		rng := rand.New(rand.NewSource(seq.simSeed))
		agent.SetRNG(rng)
		agent.Record = func(rs core.ReplayStep) {
			lo := len(arena)
			arena = append(arena, rs.Graphs...)
			rs.Graphs = arena[lo:len(arena):len(arena)]
			recs = append(recs, rs)
		}
		t0 := time.Now()
		nn.Inference(func() {
			sim.New(cfg, workload.CloneAll(seq.jobs), agent, rng).RunUntil(trainHorizon)
		})
		rollout += time.Since(t0)
		agent.Record = nil
		agent.ResetCache()
		if len(recs) == 0 {
			continue
		}
		steps += len(recs)
		wLogp := make([]float64, len(recs))
		wEnt := make([]float64, len(recs))
		for k := range recs {
			wLogp[k] = -1 / float64(len(recs))
			wEnt[k] = -0.01 / float64(len(recs))
		}
		nn.ZeroGrads(params)
		t0 = time.Now()
		loss, _ := agent.ReplayLoss(recs, wLogp, wEnt)
		loss.Backward(1)
		replay += time.Since(t0)
	}
	opt := nn.NewAdam(1e-3)
	var adam []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		opt.Step(params)
		adam = append(adam, us(time.Since(t0)))
	}
	m.set("rl.rollout_ms_per_episode", ratio(ms(rollout), float64(episodes)))
	m.set("rl.replay_ms_per_episode", ratio(ms(replay), float64(episodes)))
	m.set("rl.steps_per_episode", ratio(float64(steps), float64(episodes)))
	m.set("nn.adam_step_us", median(adam))
	if iterations > 0 {
		trainee := model.Clone(rand.New(rand.NewSource(1)))
		trainee.Greedy = false
		tr := rl.NewTrainer(trainee, trainConfig(workers), rand.New(rand.NewSource(seqs[0].simSeed)))
		src := cycle(seqs)
		var iters []float64
		for i := 0; i < iterations; i++ {
			t0 := time.Now()
			tr.Iteration(src, cfg)
			iters = append(iters, ms(time.Since(t0)))
		}
		m.set("rl.iter_p50_ms", median(iters))
	}
}

// hopProbe serves seqs through a two-replica router with two sessions on
// one connection, and sets the serving layers' metrics from it: fleet.*
// always, rpcsvc.* when rpc is set. The train workload, which has no
// serving path of its own, and serve-1, which has no router, report these
// layers from the probe.
func hopProbe(cfg sim.Config, model *core.Agent, seqs []*sequence, rpc bool, m metricSet, o *outcome) error {
	top := topology{replicas: 2, router: true, sessions: 2, conns: 1}
	d, err := deploy(top, model)
	if err != nil {
		return err
	}
	defer d.close()
	a := d.counters()
	ph := d.serve(cfg, seqs, 0, (len(seqs)+1)/2, nil, o)
	b := d.counters()
	pm := metricSet{}
	servingLayers(ph, a, b, pm, true)
	for k, v := range pm {
		if rpc || strings.HasPrefix(k, "fleet.") {
			m[k] = v
		}
	}
	return nil
}
