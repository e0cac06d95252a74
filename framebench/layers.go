package main

// The traced run's probes. Every span is taken from the benchmark's own
// code around calls into the program's modules: a detect.Model wrapper
// timing Forward, nn.Graph.FMHook timestamps for per-node self time,
// wrapped detect stage functions, the executor's and the pool's own
// counters, and direct calls to the public GEMM entries.

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"skynet/internal/detect"
	"skynet/internal/nn"
	"skynet/internal/pipeline"
	"skynet/internal/tensor"
)

// perLayer lists every per-layer metric with its unit, in the order of
// BENCHMARK.json. A traced run reports all of them; a module the workload
// does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"nn.forward_ms", "ms"},
	{"nn.dwconv3_ms", "ms"},
	{"nn.pwconv_ms", "ms"},
	{"nn.batchnorm_ms", "ms"},
	{"nn.relu6_ms", "ms"},
	{"nn.maxpool_ms", "ms"},
	{"nn.reorg_ms", "ms"},
	{"nn.concat_ms", "ms"},
	{"nn.node_sum_ratio", "ratio"},
	{"nn.allocs_per_frame", "count"},
	{"nn.alloc_mb_per_frame", "MB"},
	{"nn.dwconv3_gmacs", "GMAC/s"},
	{"nn.pwconv_gmacs", "GMAC/s"},
	{"nn.batchnorm_gbps", "GB/s"},
	{"nn.relu6_gbps", "GB/s"},
	{"nn.maxpool_gbps", "GB/s"},
	{"quant.forward_ms", "ms"},
	{"quant.allocs_per_frame", "count"},
	{"quant.alloc_mb_per_frame", "MB"},
	{"quant.gmacs", "GMAC/s"},
	{"quant.export_s", "s"},
	{"tensor.gemm_f32_ms", "ms"},
	{"tensor.gemm_i8_ms", "ms"},
	{"detect.pre_ms", "ms"},
	{"detect.infer_overhead_ms", "ms"},
	{"detect.post_ms", "ms"},
	{"detect.request_decode_ms", "ms"},
	{"pipeline.infer_batch_mean", "count"},
	{"pipeline.infer_occupancy", "ratio"},
	{"pipeline.infer_wait_ms", "ms"},
	{"pipeline.blocked_ms", "ms"},
	{"serve.server_p50_ms", "ms"},
	{"serve.server_p95_ms", "ms"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.replica_wait_ms", "ms"},
	{"serve.replica_batch_mean", "count"},
	{"serve.shed_ratio", "ratio"},
	{"serve.failed", "count"},
	{"loadgen.late_p95_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// nodeSumTolerance bounds |nn.node_sum_ratio − 1|: the FMHook gaps must
// account for the whole forward pass, or the op-kind split is not a split
// of the frame time.
const nodeSumTolerance = 0.02

// Op kinds of SkyNet C's nodes, in perLayer order.
const (
	kindDW = iota
	kindPW
	kindBN
	kindReLU6
	kindPool
	kindReorg
	kindConcat
	kindOther
	numKinds
)

var kindNames = [numKinds]string{"dwconv3", "pwconv", "batchnorm", "relu6", "maxpool", "reorg", "concat", "other"}

func opKind(l nn.Layer) int {
	switch l := l.(type) {
	case *nn.DWConv3:
		return kindDW
	case *nn.Conv2D:
		if l.K == 1 {
			return kindPW
		}
	case *nn.BatchNorm:
		return kindBN
	case *nn.ReLU:
		return kindReLU6
	case *nn.MaxPool:
		return kindPool
	case *nn.Reorg:
		return kindReorg
	case *nn.Concat:
		return kindConcat
	}
	return kindOther
}

// probedModel wraps a detect.Model and times every Forward. When g is set
// it also installs g.FMHook and charges the gap since the previous node's
// hook (or the start of Forward) to the node's op kind: its self time.
type probedModel struct {
	m    detect.Model
	kind []int

	mu      sync.Mutex // held for a whole Forward; the hook runs inside it
	last    time.Time
	self    [numKinds]time.Duration
	forward time.Duration
	frames  int
}

func newProbedModel(m detect.Model, g *nn.Graph) *probedModel {
	p := &probedModel{m: m}
	if g != nil {
		for _, n := range g.Nodes {
			p.kind = append(p.kind, opKind(n.Layer))
		}
		g.FMHook = p.hook
	}
	return p
}

func (p *probedModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	p.mu.Lock()
	defer p.mu.Unlock()
	t0 := time.Now()
	p.last = t0
	out := p.m.Forward(x, train)
	p.forward += time.Since(t0)
	p.frames += x.Dim(0)
	return out
}

// reset drops what the probe has recorded so far (the warm-up).
func (p *probedModel) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.self = [numKinds]time.Duration{}
	p.forward, p.frames = 0, 0
}

func (p *probedModel) hook(i int, _ *tensor.Tensor) {
	now := time.Now()
	p.self[p.kind[i]] += now.Sub(p.last)
	p.last = now
}

// probeTotals sums the probes of every model instance (one per replica).
type probeTotals struct {
	self    [numKinds]time.Duration
	forward time.Duration
	frames  int
}

func sumProbes(ps []*probedModel) probeTotals {
	var t probeTotals
	for _, p := range ps {
		p.mu.Lock()
		for k := range t.self {
			t.self[k] += p.self[k]
		}
		t.forward += p.forward
		t.frames += p.frames
		p.mu.Unlock()
	}
	return t
}

func (t probeTotals) forwardMS() float64 { return ms(t.forward) / float64(max(t.frames, 1)) }

// frameCost is the per-frame work of the float graph at batch 1: MACs from
// nn.Coster and activation bytes (input plus output, float32) computed
// from the node shapes, not measured.
type frameCost struct {
	macs      [numKinds]int64
	bytes     [numKinds]int64
	totalMACs int64
	pw        [][3]int // m, k, n of every pointwise GEMM
}

func costOf(g *nn.Graph, img *tensor.Tensor) frameCost {
	x, _ := detect.Batch([]detect.Sample{{Image: img}}, 0, 1)
	g.Forward(x, false)
	elems := func(shape []int) int64 {
		n := int64(1)
		for _, d := range shape {
			n *= int64(d)
		}
		return n
	}
	var c frameCost
	for i, n := range g.Nodes {
		k := opKind(n.Layer)
		b := elems(g.OutShapes[i])
		for _, j := range n.Inputs {
			if j == nn.GraphInput {
				b += elems(x.Shape())
			} else {
				b += elems(g.OutShapes[j])
			}
		}
		c.bytes[k] += 4 * b
		if cl, ok := n.Layer.(nn.Coster); ok {
			m, _ := cl.Cost()
			c.macs[k] += m
			c.totalMACs += m
		}
		if conv, ok := n.Layer.(*nn.Conv2D); ok && k == kindPW {
			s := g.OutShapes[i]
			c.pw = append(c.pw, [3]int{conv.OutC, conv.InC, s[2] * s[3]})
		}
	}
	return c
}

// setNN fills the nn.* metrics from probe totals, the frame cost and the
// isolated allocation counts, and reports whether node_sum_ratio is within
// tolerance.
func setNN(r *runner, t probeTotals, c frameCost, allocs, mb float64) {
	frames := float64(max(t.frames, 1))
	var sum time.Duration
	for _, d := range t.self {
		sum += d
	}
	sumRatio := ratio(float64(sum), float64(t.forward))
	r.layers["nn.forward_ms"] = t.forwardMS()
	for k := 0; k < kindOther; k++ {
		r.layers["nn."+kindNames[k]+"_ms"] = ms(t.self[k]) / frames
	}
	r.layers["nn.node_sum_ratio"] = sumRatio
	r.layers["nn.allocs_per_frame"] = allocs
	r.layers["nn.alloc_mb_per_frame"] = mb
	rate := func(k int, work [numKinds]int64) float64 {
		return ratio(float64(work[k])/1e9, t.self[k].Seconds()/frames)
	}
	r.layers["nn.dwconv3_gmacs"] = rate(kindDW, c.macs)
	r.layers["nn.pwconv_gmacs"] = rate(kindPW, c.macs)
	r.layers["nn.batchnorm_gbps"] = rate(kindBN, c.bytes)
	r.layers["nn.relu6_gbps"] = rate(kindReLU6, c.bytes)
	r.layers["nn.maxpool_gbps"] = rate(kindPool, c.bytes)
	if sumRatio < 1-nodeSumTolerance || sumRatio > 1+nodeSumTolerance {
		r.fail("nn.node_sum_ratio %.4f outside 1±%.2f", sumRatio, nodeSumTolerance)
	}
}

// setGEMM times the public GEMM entries at exactly the pointwise shapes the
// model runs per frame: tensor.gemm_f32_ms through MatMulInto and
// tensor.gemm_i8_ms through Int8GEMMRequantInto, each the median of five
// passes over all shapes.
func setGEMM(r *runner, shapes [][3]int) {
	rng := rand.New(rand.NewSource(r.seed))
	const passes = 5
	var f32, i8 []time.Duration
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b, c := tensor.New(m, k), tensor.New(k, n), tensor.New(m, n)
		for i := range a.Data {
			a.Data[i] = rng.Float32() - 0.5
		}
		for i := range b.Data {
			b.Data[i] = rng.Float32()
		}
		qa, qb, qc := make([]int8, m*k), make([]int8, k*n), make([]int8, m*n)
		for i := range qa {
			qa[i] = int8(rng.Intn(255) - 127)
		}
		for i := range qb {
			qb[i] = int8(rng.Intn(128))
		}
		ep := tensor.Int8Epilogue{Bias: make([]int32, m), Mult: make([]float32, m), Lo: 0, Hi: 127}
		for i := range ep.Mult {
			ep.Mult[i] = 1.0 / 4096
		}
		for p := 0; p < passes; p++ {
			if len(f32) <= p {
				f32, i8 = append(f32, 0), append(i8, 0)
			}
			t0 := time.Now()
			tensor.MatMulInto(c, a, b)
			f32[p] += time.Since(t0)
			t0 = time.Now()
			tensor.Int8GEMMRequantInto(qc, qa, qb, m, n, k, ep)
			i8[p] += time.Since(t0)
		}
	}
	r.layers["tensor.gemm_f32_ms"] = ms(median(f32))
	r.layers["tensor.gemm_i8_ms"] = ms(median(i8))
}

// stageDelta returns after − before per stage: the counters of one phase.
func stageDelta(before, after []pipeline.StageStats) []pipeline.StageStats {
	out := append([]pipeline.StageStats(nil), after...)
	for i := range out {
		if i < len(before) {
			out[i].Items -= before[i].Items
			out[i].Batches -= before[i].Batches
			out[i].Busy -= before[i].Busy
			out[i].Wait -= before[i].Wait
			out[i].Blocked -= before[i].Blocked
		}
	}
	return out
}

// setPipeline fills pipeline.* from stage counters summed over executors.
func setPipeline(r *runner, stages []pipeline.StageStats) {
	var inf pipeline.StageStats
	var blocked time.Duration
	for _, s := range stages {
		blocked += s.Blocked
		if s.Name == pipeline.StageInfer {
			inf.Items += s.Items
			inf.Batches += s.Batches
			inf.Busy += s.Busy
			inf.Wait += s.Wait
			inf.Blocked += s.Blocked
		}
	}
	frames := float64(max(inf.Items, 1))
	r.layers["pipeline.infer_batch_mean"] = inf.MeanBatchSize()
	r.layers["pipeline.infer_occupancy"] = inf.Occupancy()
	r.layers["pipeline.infer_wait_ms"] = ms(inf.Wait) / frames
	r.layers["pipeline.blocked_ms"] = ms(blocked) / frames
}

// setDetectStages fills detect.pre_ms, detect.post_ms and
// detect.infer_overhead_ms from the stage counters: the pre and post stage
// busy time per item, and the infer stage busy time minus the probed
// model's Forward, per frame.
func setDetectStages(r *runner, stages []pipeline.StageStats, t probeTotals) {
	var pre, post pipeline.StageStats
	var inferBusy time.Duration
	for _, st := range stages {
		switch st.Name {
		case pipeline.StagePre:
			pre.Busy, pre.Items = pre.Busy+st.Busy, pre.Items+st.Items
		case pipeline.StagePost:
			post.Busy, post.Items = post.Busy+st.Busy, post.Items+st.Items
		case pipeline.StageInfer:
			inferBusy += st.Busy
		}
	}
	r.layers["detect.infer_overhead_ms"] = ms(inferBusy-t.forward) / float64(max(t.frames, 1))
	r.layers["detect.pre_ms"] = pre.PerItemSeconds() * 1e3
	r.layers["detect.post_ms"] = post.PerItemSeconds() * 1e3
}

// medianFloat returns the median of xs (0 when empty).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
