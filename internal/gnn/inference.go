package gnn

import "repro/internal/nn"

// This file is the GNN's inference fast path: the same level-batched
// message passing as EmbedNodes / Forward, but with no autograd graph, all
// MLP forwards fused (nn.MLP.ForwardInference), and every intermediate drawn
// from a caller-owned scratch arena. Arithmetic order matches the tracked
// ops exactly, so results are bit-identical — the equivalence the incremental
// embedding cache in internal/core depends on (see DESIGN.md).
//
// Returned tensors are backed by the scratch arena and are valid until the
// caller resets it; callers that cache results across decisions must copy
// them out (nn.Tensor.Clone).

// gatherRows copies rows idx of a into a scratch tensor (no-grad GatherRows).
func gatherRows(a *nn.Tensor, idx []int, s *nn.Scratch) *nn.Tensor {
	m := a.Cols
	out := s.AllocTensor(len(idx), m)
	for i, r := range idx {
		copy(out.Data[i*m:(i+1)*m], a.Data[r*m:(r+1)*m])
	}
	return out
}

// segmentSum scatter-adds rows of a into numSegments scratch rows, matching
// nn.SegmentSum's accumulation order.
func segmentSum(a *nn.Tensor, seg []int, numSegments int, s *nn.Scratch) *nn.Tensor {
	m := a.Cols
	out := s.AllocTensor(numSegments, m)
	for i, sg := range seg {
		dr := out.Data[sg*m : (sg+1)*m]
		ar := a.Data[i*m : (i+1)*m]
		for j, v := range ar {
			dr[j] += v
		}
	}
	return out
}

// sumRows column-sums a into a 1×m scratch row, matching nn.SumRows.
func sumRows(a *nn.Tensor, s *nn.Scratch) *nn.Tensor {
	m := a.Cols
	out := s.AllocTensor(1, m)
	for i := 0; i < a.Rows; i++ {
		ar := a.Data[i*m : (i+1)*m]
		for j, v := range ar {
			out.Data[j] += v
		}
	}
	return out
}

// EmbedNodesInference computes the same per-node embeddings as EmbedNodes —
// bit-identically — on the no-grad fast path.
func (g *GNN) EmbedNodesInference(gr *Graph, s *nn.Scratch) *nn.Tensor {
	x := g.Prep.ForwardInference(gr.Feats, s)
	e := x
	d := x.Cols
	maxH, edges := 0, 0
	for v, h := range gr.Heights {
		if h > maxH {
			maxH = h
		}
		edges += len(gr.Children[v])
	}
	// Level index buffers, sized once for the whole graph and reused by
	// every level: this runs once per embedding-cache miss, and growing
	// fresh slices per level cost several allocations per level.
	parents := make([]int, 0, len(gr.Heights))
	childIdx := make([]int, 0, edges)
	seg := make([]int, 0, edges)
	for h := 1; h <= maxH; h++ {
		parents, childIdx, seg = parents[:0], childIdx[:0], seg[:0]
		for v, hv := range gr.Heights {
			if hv != h {
				continue
			}
			pi := len(parents)
			parents = append(parents, v)
			for _, c := range gr.Children[v] {
				childIdx = append(childIdx, c)
				seg = append(seg, pi)
			}
		}
		if len(parents) == 0 {
			continue
		}
		msgs := g.FNode.ForwardInference(gatherRows(e, childIdx, s), s)
		agg := segmentSum(msgs, seg, len(parents), s)
		if !g.Cfg.SingleLevel {
			agg = g.GNode.ForwardInference(agg, s)
		}
		// rows = agg + x[parents], scattered into a copy of e (the tracked
		// path's Add + ScatterRows, fused).
		ne := s.AllocTensor(e.Rows, e.Cols)
		copy(ne.Data, e.Data)
		for pi, v := range parents {
			dst := ne.Data[v*d : (v+1)*d]
			ar := agg.Data[pi*d : (pi+1)*d]
			xr := x.Data[v*d : (v+1)*d]
			for j := range dst {
				dst[j] = ar[j] + xr[j]
			}
		}
		e = ne
	}
	return e
}

// JobSummaryInference computes one job's 1×D summary from its features and
// node embeddings, bit-identical to the per-job stage of Forward.
func (g *GNN) JobSummaryInference(gr *Graph, nodeEmb *nn.Tensor, s *nn.Scratch) *nn.Tensor {
	f, d := gr.Feats.Cols, nodeEmb.Cols
	pair := s.AllocTensor(nodeEmb.Rows, f+d)
	for i := 0; i < nodeEmb.Rows; i++ {
		copy(pair.Data[i*(f+d):i*(f+d)+f], gr.Feats.Data[i*f:(i+1)*f])
		copy(pair.Data[i*(f+d)+f:(i+1)*(f+d)], nodeEmb.Data[i*d:(i+1)*d])
	}
	return g.GJob.ForwardInference(sumRows(g.FJob.ForwardInference(pair, s), s), s)
}

// GlobalInference aggregates the numJobs×D per-job summary matrix into the
// 1×D global summary, bit-identical to the global stage of Forward.
func (g *GNN) GlobalInference(jobs *nn.Tensor, s *nn.Scratch) *nn.Tensor {
	return g.GGlob.ForwardInference(sumRows(g.FGlob.ForwardInference(jobs, s), s), s)
}

// ForwardInference embeds all graphs on the no-grad fast path, producing
// bit-identical values to Forward. Results live in the scratch arena.
func (g *GNN) ForwardInference(graphs []*Graph, s *nn.Scratch) *Embeddings {
	emb := &Embeddings{}
	d := g.Cfg.EmbedDim
	if len(graphs) == 0 {
		emb.Jobs = nn.Zeros(0, d)
		emb.Global = nn.Zeros(1, d)
		return emb
	}
	jobs := s.AllocTensor(len(graphs), d)
	for i, gr := range graphs {
		e := g.EmbedNodesInference(gr, s)
		emb.Nodes = append(emb.Nodes, e)
		y := g.JobSummaryInference(gr, e, s)
		copy(jobs.Data[i*d:(i+1)*d], y.Data)
	}
	emb.Jobs = jobs
	emb.Global = g.GlobalInference(jobs, s)
	return emb
}
