package main

// The stream workloads: detect.NewStreamExecutor in a closed loop that
// keeps a fixed window of frames outstanding.

import (
	"fmt"
	"os"
	"time"

	"skynet/internal/detect"
	"skynet/internal/nn"
	"skynet/internal/pipeline"
	"skynet/internal/tensor"
)

// streamSpec configures one stream workload.
type streamSpec struct {
	maxBatch int
	window   int // frames outstanding in the closed loop
	warm     int // warm-up frames per set-up
	int8     bool
}

// stream-f32-b4 keeps two inference batches outstanding; live-int8-b1 one
// frame, like a single live camera. One warm-up batch sizes every buffer.
var (
	f32Stream = streamSpec{maxBatch: 4, window: 8, warm: 4}
	i8Stream  = streamSpec{maxBatch: 1, window: 1, warm: 2, int8: true}
)

func runStreamF32(r *runner) error { return runStream(r, f32Stream) }
func runLiveInt8(r *runner) error  { return runStream(r, i8Stream) }

// build constructs the workload's model: the float graph, or its int8
// export, whose duration is returned as export.
func (s streamSpec) build(r *runner) (m detect.Model, export time.Duration, err error) {
	if !s.int8 {
		return buildGraph(), 0, nil
	}
	t0 := time.Now()
	qm, err := exportInt8(r.in.calib)
	return qm, time.Since(t0), err
}

// setUp builds the model and a detect.NewStreamExecutor over wrap(model)
// and runs the warm-up frames.
func (s streamSpec) setUp(r *runner, wrap func(detect.Model) detect.Model) (*pipeline.Executor, time.Duration, error) {
	m, export, err := s.build(r)
	if err != nil {
		return nil, 0, err
	}
	if wrap != nil {
		m = wrap(m)
	}
	ex, err := detect.NewStreamExecutor(m, detect.NewHead(nil), detect.StreamConfig{MaxBatch: s.maxBatch})
	if err != nil {
		return nil, 0, err
	}
	warm := make([]any, s.warm)
	for i := range warm {
		warm[i] = &detect.Frame{Image: r.in.base[i%len(r.in.base)]}
	}
	if _, err := ex.Run(r.ctx, warm); err != nil {
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return ex, export, nil
}

func runStream(r *runner, s streamSpec) error {
	ref, _, err := s.build(r)
	if err != nil {
		return err
	}
	r.check.setReference(direct(ref, r.in.base))

	if !r.trace {
		var ex *pipeline.Executor
		for i := 0; i < setupReps; i++ {
			t0 := time.Now()
			if ex, _, err = s.setUp(r, nil); err != nil {
				return err
			}
			r.setups = append(r.setups, time.Since(t0))
		}
		r.m = closedLoop(r, ex, s.window, r.seconds)
		return nil
	}

	// Traced run: an untraced half for the overhead ratio, then the same
	// loop with every probe installed.
	ex, _, err := s.setUp(r, nil)
	if err != nil {
		return err
	}
	untraced := closedLoop(r, ex, s.window, r.seconds/2)

	var (
		probe  *probedModel
		export time.Duration
	)
	wrap := func(m detect.Model) detect.Model {
		g, _ := m.(*nn.Graph) // nil for the int8 model: no per-node hook
		probe = newProbedModel(m, g)
		return probe
	}
	ex, export, err = s.setUp(r, wrap)
	if err != nil {
		return err
	}
	probe.reset()
	before := ex.Stats()
	traced := closedLoop(r, ex, s.window, r.seconds/2)
	after := ex.Stats()

	r.m = traced
	r.m.attempted += untraced.attempted
	r.m.failed += untraced.failed
	tracedFPS, _ := traced.rates(r.w.limit)
	untracedFPS, _ := untraced.rates(r.w.limit)
	r.layers["trace.overhead_ratio"] = ratio(tracedFPS, untracedFPS)
	stages := stageDelta(before, after)
	t := sumProbes([]*probedModel{probe})
	setPipeline(r, stages)
	setDetectStages(r, stages, t)

	cost := costOf(buildGraph(), r.in.base[0])
	setGEMM(r, cost.pw)
	if !s.int8 {
		x, _ := detect.Batch(samples(r.in.base[:s.maxBatch]), 0, s.maxBatch)
		allocs, mb := allocsPerFrame(buildGraph(), x, 3)
		setNN(r, t, cost, allocs, mb)
		return nil
	}

	r.layers["quant.forward_ms"] = t.forwardMS()
	r.layers["quant.gmacs"] = ratio(float64(cost.totalMACs)/1e9, t.forwardMS()/1e3)
	r.layers["quant.export_s"] = export.Seconds()
	x, _ := detect.Batch(samples(r.in.base[:1]), 0, 1)
	r.layers["quant.allocs_per_frame"], r.layers["quant.alloc_mb_per_frame"] = allocsPerFrame(probe.m, x, 3)

	// The float layers run only in calibration here: probe the float graph
	// on the calibration batch, once warm.
	cg := buildGraph()
	cp := newProbedModel(cg, cg)
	cp.Forward(r.in.calib, false)
	cp.reset()
	cp.Forward(r.in.calib, false)
	cg.FMHook = nil
	allocs, mb := allocsPerFrame(cg, r.in.calib, 1)
	setNN(r, sumProbes([]*probedModel{cp}), cost, allocs, mb)
	return nil
}

func samples(frames []*tensor.Tensor) []detect.Sample {
	out := make([]detect.Sample, len(frames))
	for i, f := range frames {
		out[i] = detect.Sample{Image: f}
	}
	return out
}

// closedLoop submits frames (cycling through the base frames) keeping
// window of them outstanding, for d, then drains. Latency runs from the
// frame's submission to its decoded box leaving the executor.
func closedLoop(r *runner, ex *pipeline.Executor, window int, d time.Duration) measurement {
	in := make(chan any, window)
	out, wait := ex.Stream(r.ctx, in)
	type sent struct {
		idx int
		at  time.Time
	}
	var (
		m       measurement
		fifo    []sent
		next    int
		inOpen  = true
		lastOut time.Time
	)
	submit := func() {
		i := next % len(r.in.base)
		next++
		m.attempted++
		fifo = append(fifo, sent{i, time.Now()})
		in <- &detect.Frame{Image: r.in.base[i]}
	}
	mw := watchMemory()
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; i < window; i++ {
		submit()
	}
	for v := range out {
		now := time.Now()
		s := fifo[0]
		fifo = fifo[1:]
		f := v.(*detect.Frame)
		if r.check.ok(s.idx, detection{f.Box, f.Conf}) {
			m.ok = append(m.ok, now.Sub(s.at))
		} else {
			m.failed++
		}
		lastOut = now
		switch {
		case now.Before(deadline):
			submit()
		case len(fifo) == 0 && inOpen:
			close(in)
			inOpen = false
		}
	}
	if inOpen {
		close(in)
	}
	if err := wait(); err != nil {
		fmt.Fprintln(os.Stderr, "framebench: stream failed:", err)
	}
	// Frames the executor never returned (a failed stream) are failures.
	m.failed += len(fifo)
	if lastOut.IsZero() {
		lastOut = time.Now()
	}
	m.elapsed = lastOut.Sub(start)
	mw.finish(&m)
	return m
}
