// Package core is the paper's primary contribution assembled: the Decima
// scheduling agent. It extracts the state observation of §6.1 from the
// simulator, embeds it with the graph neural network of §5.1, decodes the
// two-dimensional ⟨stage, parallelism limit⟩ actions of §5.2 (plus an
// executor class in the multi-resource setting of §7.3) through the policy
// network, and exposes everything behind sim.Scheduler so the same agent
// runs in training rollouts, evaluation, and the RPC scheduling service.
//
// Two decision paths share one arithmetic, enforced bit-identical by
// tests: the tracked path (Hook set; differentiable log-probabilities for
// REINFORCE) and the inference fast path (nil Hook; fused no-grad forwards
// plus the incremental per-job embedding cache of cache.go, optionally
// recording replay steps for the batched training backward in replay.go).
// Training rollouts, evaluation and every served decision take one of them,
// one scheduling event at a time.
package core

import (
	"math/rand"

	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/sim"
)

// baseFeatures is the number of per-node features of §6.1: remaining
// tasks, mean task duration, executors on the job, free executors, a
// locality flag, and remaining stage work.
const baseFeatures = 6

// Config parameterises the agent and its ablations.
type Config struct {
	// NumLimits is the number of discrete parallelism levels; use the
	// cluster's executor count.
	NumLimits int
	// ClassMem lists executor-class memory sizes; empty disables the class
	// head (single-resource setting).
	ClassMem []float64
	// EmbedDim and Hidden size the GNN and policy networks.
	EmbedDim int
	Hidden   []int
	// NoGraphEmbedding ablates the GNN: raw node features feed the score
	// functions directly (Fig. 14, "w/o graph embedding").
	NoGraphEmbedding bool
	// NoParallelismControl ablates the limit head: every action requests
	// all executors (Fig. 14, "w/o parallelism control").
	NoParallelismControl bool
	// NoTaskDurations zeroes duration-derived features (Appendix J,
	// incomplete information).
	NoTaskDurations bool
	// UseIATFeature appends the workload's mean interarrival time as a
	// state feature (Table 2, "with interarrival time hints").
	UseIATFeature bool
	// IATHint is the value of that feature, in seconds.
	IATHint float64
	// StageLevelLimits and NoLimitInput select the alternative action
	// encodings of Fig. 15a.
	StageLevelLimits bool
	NoLimitInput     bool
	// SingleLevelGNN ablates the two-level aggregation (Appendix E).
	SingleLevelGNN bool
}

// DefaultConfig returns the standard agent configuration for a cluster of
// the given size.
func DefaultConfig(numExecutors int) Config {
	return Config{NumLimits: numExecutors, EmbedDim: 8, Hidden: []int{16, 8}}
}

// FeatDim returns the node feature dimensionality implied by the config.
func (c Config) FeatDim() int {
	d := baseFeatures
	if c.UseIATFeature {
		d++
	}
	return d
}

// Step records one decision during an episode, carrying everything the
// REINFORCE trainer needs: the differentiable log-probability, the policy
// entropy, and the reward bookkeeping values of §5.3.
type Step struct {
	// LogProb is log π_θ(a_k | s_k), differentiable.
	LogProb *nn.Tensor
	// Entropy is the node-selection entropy, differentiable.
	Entropy *nn.Tensor
	// Time is the simulation time t_k of the action.
	Time float64
	// JobSeconds is the ∫#jobs dt integral at decision time; consecutive
	// differences give the −(t_k − t_{k−1})·J penalty.
	JobSeconds float64
	// NumJobs is the number of jobs in the system at decision time.
	NumJobs int
}

// Agent is the Decima scheduler.
type Agent struct {
	Cfg Config
	GNN *gnn.GNN
	Pol *policy.Policy

	// Greedy switches from sampling (training) to argmax (evaluation).
	Greedy bool
	// Hook, when set, receives every decision's Step during simulation.
	// A nil Hook also selects the inference fast path: nobody consumes the
	// differentiable log-probability and entropy tensors, so Schedule skips
	// the autograd graph entirely and serves embeddings from the
	// incremental per-job cache. Decisions are bit-identical either way.
	Hook func(*Step)
	// NoCache disables the incremental embedding cache on the fast path
	// (every decision re-embeds every job). Evaluation results are
	// bit-identical with the cache on or off; the switch exists for the
	// equivalence tests and benchmarks that prove it.
	NoCache bool
	// Record, when set, receives a replay record for every fast-path
	// decision (it is never called on the tracked Hook path). The training
	// fast path rolls episodes out with Hook nil and Record set, then
	// rebuilds the gradient graph from the records (see replay.go). The
	// record's Graphs slice aliases agent-owned scratch that is overwritten
	// by the next decision — a recorder that retains the step must copy it;
	// the *gnn.Graph values themselves are stable and shared across steps
	// whenever a job's cache key was unchanged.
	Record func(ReplayStep)

	rng *rand.Rand

	// Fast-path state: the scratch arena backing one decision's tensors and
	// the per-job embedding cache (see cache.go). Private to the agent, so
	// concurrent agents (e.g. parallel evaluation workers holding clones)
	// never share mutable state. recGraphs is the per-decision graph list
	// handed to Record, reused across decisions.
	scratch   nn.Scratch
	cache     map[*sim.JobState]*jobCache
	embedPass uint64
	recGraphs []*gnn.Graph
}

// New builds an agent with freshly initialised networks.
func New(cfg Config, rng *rand.Rand) *Agent {
	if cfg.EmbedDim == 0 {
		cfg.EmbedDim = 8
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{16, 8}
	}
	embedDim := cfg.EmbedDim
	if cfg.NoGraphEmbedding {
		// Raw features feed the score functions directly, so the policy's
		// "embedding" dimensionality is the feature dimensionality.
		embedDim = cfg.FeatDim()
	}
	a := &Agent{Cfg: cfg, rng: rng}
	if !cfg.NoGraphEmbedding {
		a.GNN = gnn.New(gnn.Config{
			FeatDim:     cfg.FeatDim(),
			EmbedDim:    cfg.EmbedDim,
			Hidden:      cfg.Hidden,
			SingleLevel: cfg.SingleLevelGNN,
		}, rng)
	}
	a.Pol = policy.New(policy.Config{
		EmbedDim:         embedDim,
		Hidden:           cfg.Hidden,
		NumLimits:        cfg.NumLimits,
		NumClasses:       len(cfg.ClassMem),
		NoLimitInput:     cfg.NoLimitInput,
		StageLevelLimits: cfg.StageLevelLimits,
	}, rng)
	return a
}

// Params returns all trainable tensors in a stable order.
func (a *Agent) Params() []*nn.Tensor {
	var ps []*nn.Tensor
	if a.GNN != nil {
		ps = append(ps, a.GNN.Params()...)
	}
	return append(ps, a.Pol.Params()...)
}

// Clone returns an agent with the same configuration and a deep copy of the
// parameter values, sharing no mutable state with the receiver. The clone
// samples actions from rng and starts with a nil Hook; parallel rollout
// workers each hold one clone and refresh it with SyncFrom every iteration.
func (a *Agent) Clone(rng *rand.Rand) *Agent {
	b := New(a.Cfg, rng)
	nn.CopyParams(b.Params(), a.Params())
	b.Greedy = a.Greedy
	b.NoCache = a.NoCache
	return b
}

// SyncFrom copies parameter values from src, which must have the same
// architecture (typically the agent this one was cloned from). It drops the
// embedding cache: cached embeddings were computed with the old weights,
// and the cache key covers the job state, not the parameters.
func (a *Agent) SyncFrom(src *Agent) {
	nn.CopyParams(a.Params(), src.Params())
	a.cache = nil
}

// Decide implements the unified scheduler contract of internal/scheduler:
// one invocation produces one ⟨stage, limit(, class)⟩ action. A local
// decision cannot fail, so the error is always nil; the slot exists so the
// agent is interchangeable with remote (RPC-backed) schedulers.
func (a *Agent) Decide(s *sim.State) (*sim.Action, error) { return a.Schedule(s), nil }

// Reset implements the unified scheduler contract: it clears per-run state
// (the embedding cache) so the agent can serve a fresh run. Parameters,
// greediness and the sampling RNG are untouched.
func (a *Agent) Reset() { a.ResetCache() }

// ResetCache drops the embedding cache, releasing its references to the
// last run's simulator state (jobs, DAGs, cached embeddings). Callers that
// keep an agent alive after a rollout finishes (e.g. rl.Evaluate, a trainer
// that evaluates between iterations) call this so a finished run's memory
// does not linger until the next fast-path decision. Correctness never
// depends on it: entries are keyed by *sim.JobState pointer, so a new run
// can never hit a stale entry.
func (a *Agent) ResetCache() { a.cache = nil }

// RNG returns the RNG the agent samples actions from.
func (a *Agent) RNG() *rand.Rand { return a.rng }

// SetRNG replaces the RNG the agent samples actions from. Rollout workers
// install a deterministically seeded RNG per episode so action sampling is
// reproducible regardless of how episodes are spread over workers.
func (a *Agent) SetRNG(rng *rand.Rand) { a.rng = rng }

// Save writes the agent's parameters to a file.
func (a *Agent) Save(path string) error { return nn.SaveParamsFile(path, a.Params()) }

// Load reads parameters written by Save. Like SyncFrom, it drops the
// embedding cache computed with the old weights.
func (a *Agent) Load(path string) error {
	if err := nn.LoadParamsFile(path, a.Params()); err != nil {
		return err
	}
	a.cache = nil
	return nil
}

// BatchAudit is never called. It stays only because the repository
// benchmark (perfbench/serve.go) assigns it.
var BatchAudit func([]*Agent)

// featureKeyInputs returns the only cluster-wide (non-job-local) inputs of a
// job's feature matrix: the free-executor count, the total pool size, and
// the locality flag. Everything else Features reads is job-local state
// covered by sim.JobState.Version, so (Version, freeTotal, total, local) is
// a complete cache key for per-job embeddings. Features and the embedding
// cache share this single definition so the key cannot silently diverge from
// the features. The pool size was a per-run constant before failure
// dynamics; under executor churn it varies mid-run, so it must be part of
// the key.
func featureKeyInputs(s *sim.State, j *sim.JobState) (freeTotal, total int, local float64) {
	freeTotal = len(s.FreeExecutors)
	total = s.TotalExecutors
	for _, e := range s.FreeExecutors {
		if e.LocalTo(j) {
			local = 1
			break
		}
	}
	return freeTotal, total, local
}

// Features builds the §6.1 feature matrix for one job in the given state.
func (a *Agent) Features(s *sim.State, j *sim.JobState) *nn.Tensor {
	freeTotal, total, local := featureKeyInputs(s, j)
	d := a.Cfg.FeatDim()
	f := nn.Zeros(len(j.Stages), d)
	for i, st := range j.Stages {
		remaining := float64(st.Stage.NumTasks - st.TasksDone)
		dur := st.Stage.TaskDuration
		work := st.RemainingWork()
		if a.Cfg.NoTaskDurations {
			dur, work = 0, 0
		}
		f.Set(i, 0, remaining/100)
		f.Set(i, 1, dur/10)
		f.Set(i, 2, float64(j.Executors)/float64(maxInt(a.Cfg.NumLimits, 1)))
		f.Set(i, 3, float64(freeTotal)/float64(maxInt(total, 1)))
		f.Set(i, 4, local)
		f.Set(i, 5, work/1000)
		if a.Cfg.UseIATFeature {
			f.Set(i, 6, a.Cfg.IATHint/100)
		}
	}
	return f
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// embed produces embeddings for the state, honouring the GNN ablation.
func (a *Agent) embed(s *sim.State) *gnn.Embeddings {
	graphs := make([]*gnn.Graph, len(s.Jobs))
	for i, j := range s.Jobs {
		graphs[i] = gnn.NewGraph(j.Job, a.Features(s, j))
	}
	if a.Record != nil {
		// The GNN ablation reaches here from the fast path too; stash the
		// observation so the decision can be recorded for replay.
		a.recGraphs = append(a.recGraphs[:0], graphs...)
	}
	if a.GNN != nil {
		return a.GNN.Forward(graphs)
	}
	// Ablation: identity "embeddings" from raw features with zero job and
	// global summaries.
	emb := &gnn.Embeddings{
		Jobs:   nn.Zeros(len(s.Jobs), a.Cfg.FeatDim()),
		Global: nn.Zeros(1, a.Cfg.FeatDim()),
	}
	for _, g := range graphs {
		emb.Nodes = append(emb.Nodes, g.Feats)
	}
	return emb
}

// candidates enumerates the schedulable nodes of s — with their per-node
// parallelism floors and (multi-resource) class masks — exactly as the
// policy scores them.
func (a *Agent) candidates(s *sim.State) (cands []policy.Candidate, stages []*sim.StageState, minLimits []int, classOKs [][]bool) {
	for ji, j := range s.Jobs {
		for ni, st := range j.Stages {
			if !st.Runnable() || s.FreeCount(st) == 0 {
				continue
			}
			cands = append(cands, policy.Candidate{JobIdx: ji, NodeIdx: ni})
			stages = append(stages, st)
			minLimits = append(minLimits, j.Executors+1)
			if len(a.Cfg.ClassMem) > 1 {
				ok := make([]bool, len(a.Cfg.ClassMem))
				for _, e := range s.FreeExecutors {
					if e.Mem >= st.Stage.MemReq {
						ok[e.Class] = true
					}
				}
				classOKs = append(classOKs, ok)
			}
		}
	}
	return cands, stages, minLimits, classOKs
}

// Schedule implements sim.Scheduler: one invocation produces one
// ⟨stage, limit(, class)⟩ action.
func (a *Agent) Schedule(s *sim.State) *sim.Action {
	cands, stages, minLimits, classOKs := a.candidates(s)
	if len(cands) == 0 {
		return nil
	}
	req := policy.Request{
		Cands:     cands,
		MinLimits: minLimits,
		ClassMem:  a.Cfg.ClassMem,
		Greedy:    a.Greedy,
	}
	if classOKs != nil {
		req.ClassOKPer = classOKs
	}
	var dec policy.Decision
	if a.Hook == nil {
		// Inference fast path: no gradient will ever be taken from this
		// decision *now*, so skip the autograd graph, fuse the MLP forwards,
		// and reuse cached per-job embeddings. Bit-identical to the tracked
		// path below (same scores, same RNG consumption, same action). When
		// Record is set, the decision's observation and sampled action are
		// captured so training can rebuild the gradient graph in a batched
		// replay instead.
		dec = a.Pol.DecideInference(a.embedInference(s), req, a.rng, &a.scratch)
		if a.Record != nil {
			a.Record(ReplayStep{
				Graphs:     a.recGraphs,
				Cands:      cands,
				MinLimits:  minLimits,
				ClassOKs:   classOKs,
				Choice:     dec.Choice,
				Limit:      dec.Limit,
				Class:      dec.Class,
				Time:       s.Time,
				JobSeconds: s.JobSeconds,
				NumJobs:    len(s.Jobs),
			})
		}
	} else {
		dec = a.Pol.Decide(a.embed(s), req, a.rng)
		a.Hook(&Step{
			LogProb:    dec.LogProb,
			Entropy:    dec.Entropy,
			Time:       s.Time,
			JobSeconds: s.JobSeconds,
			NumJobs:    len(s.Jobs),
		})
	}
	limit := dec.Limit
	if a.Cfg.NoParallelismControl {
		limit = s.TotalExecutors
	}
	return &sim.Action{Stage: stages[dec.Choice], Limit: limit, Class: dec.Class}
}
