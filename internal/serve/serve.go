// Package serve exposes a trained detector as a concurrent service: the
// production form of the §6.3 system-level optimization. Pool is the one
// front end: it routes each request to one of N replicas, and every replica
// admits it through a bounded queue (overflow sheds load instead of growing
// latency without bound) into the streaming pipeline executor — the same
// merged three stages as the offline pipeline, with the inference stage
// dynamically micro-batched so one weight load serves many users — and
// returns it to its caller individually. Per-request failures (bad input,
// deadline, a panicking model) are carried inside the request and never
// fail the shared stream, so one poisoned request cannot take the service
// down.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"skynet/internal/detect"
	"skynet/internal/pipeline"
	"skynet/internal/tensor"
)

// Sentinel errors of the admission and data paths.
var (
	// ErrOverloaded means the admission queue was full; the caller should
	// back off and retry (HTTP 429).
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrDraining means the server is shutting down and no longer accepts
	// work (HTTP 503).
	ErrDraining = errors.New("serve: draining")
	// ErrInference wraps a failed (or panicked) inference stage (HTTP 500).
	ErrInference = errors.New("serve: inference failed")
	// ErrBadInput wraps a request rejected by pre-process validation (bad
	// rank, wrong channel count) — the caller's fault (HTTP 400), never a
	// server failure.
	ErrBadInput = errors.New("serve: bad input")
)

// Config tunes one replica of a Pool (see PoolConfig.Replica). The zero
// value selects serving-appropriate defaults.
type Config struct {
	// MaxBatch caps the inference micro-batch; 0 selects 8.
	MaxBatch int
	// MaxDelay bounds how long a partial batch waits for more requests
	// before flushing; 0 selects 2ms. Serving always needs a positive
	// delay — "wait forever for a full batch" would strand the final
	// partial batch of a lull.
	MaxDelay time.Duration
	// QueueDepth bounds the admission queue; 0 selects 64. A full queue
	// rejects new requests with ErrOverloaded.
	QueueDepth int
	// PreWorkers / PostWorkers scale the CPU-side stages; 0 selects 2.
	PreWorkers  int
	PostWorkers int
	// RequestTimeout is the per-request deadline applied when the caller's
	// context has none; 0 selects 5s. Negative disables the default.
	RequestTimeout time.Duration
	// Channels, when positive, rejects images whose channel count differs
	// at pre-process with ErrBadInput (HTTP 400) — without it a wrong-shape
	// frame reaches the model and fails as a 500-class inference error. 0
	// accepts any channel count (models like the test stubs don't care).
	Channels int
}

func (c *Config) normalize() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.PreWorkers <= 0 {
		c.PreWorkers = 2
	}
	if c.PostWorkers <= 0 {
		c.PostWorkers = 2
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * time.Second
	}
}

// request is one in-flight detection riding the shared executor stream.
type request struct {
	ctx   context.Context
	frame *detect.Frame
	err   error // first per-request failure; set by the owning stage
	done  chan result
	enq   time.Time
}

type result struct {
	box  detect.Box
	conf float64
	err  error
}

// deliver hands the result to the waiting caller. done is buffered and
// written exactly once, so delivery never blocks the pipeline even when
// the caller has already given up.
func (r *request) deliver() {
	res := result{box: r.frame.Box, conf: r.frame.Conf, err: r.err}
	r.done <- res
}

// replica is one model+head pair behind its own admission queue and
// streaming executor: the unit a Pool routes to. It is safe for concurrent
// use. Create with newReplica, stop with Drain (graceful) or Close
// (abandon).
type replica struct {
	cfg  Config
	ex   *pipeline.Executor
	hist *Histogram

	mu       sync.RWMutex // guards draining vs sends on in
	draining bool
	in       chan any

	cancel   context.CancelFunc
	finished chan struct{} // closed once every pipeline goroutine exited
	runErr   error         // stream error, readable after finished

	served   atomic.Int64
	failed   atomic.Int64
	rejected atomic.Int64
	expired  atomic.Int64
}

// newReplica starts the serving pipeline for a model+head pair. The model
// is driven from a single inference worker (Graph forwards share buffers
// and are not concurrency-safe); throughput scales with Config.MaxBatch.
func newReplica(m detect.Model, h *detect.Head, cfg Config) (*replica, error) {
	if m == nil || h == nil {
		return nil, errors.New("serve: model and head are required")
	}
	cfg.normalize()
	s := &replica{
		cfg:      cfg,
		hist:     NewHistogram(),
		in:       make(chan any, cfg.QueueDepth),
		finished: make(chan struct{}),
	}

	// Stage procs mirror detect.PreStage/InferStage/PostStage but record
	// failures on the request instead of returning them: an executor-level
	// error is fail-fast for the whole stream, which is exactly wrong for
	// serving. The executor therefore only ever sees nil errors, and its
	// panic recovery is backed up by a local recover in the batch stage.
	specs := []pipeline.StageSpec{
		{
			Name:    pipeline.StagePre,
			Workers: cfg.PreWorkers,
			Proc: func(_ context.Context, v any) (any, error) {
				req := v.(*request)
				if req.live() {
					if err := detect.Preprocess(req.frame); err != nil {
						req.err = fmt.Errorf("%w: %v", ErrBadInput, err)
					} else if c := cfg.Channels; c > 0 && req.frame.Image.Dim(0) != c {
						req.err = fmt.Errorf("%w: image has %d channels, want %d",
							ErrBadInput, req.frame.Image.Dim(0), c)
					}
				}
				return req, nil
			},
		},
		{
			Name:     pipeline.StageInfer,
			MaxBatch: cfg.MaxBatch,
			MaxDelay: cfg.MaxDelay,
			Batch: func(_ context.Context, items []any) ([]any, error) {
				// Only requests that survived pre-processing and still have a
				// waiting caller are worth a forward pass.
				live := make([]*detect.Frame, 0, len(items))
				reqs := make([]*request, 0, len(items))
				for _, v := range items {
					req := v.(*request)
					if req.live() {
						live = append(live, req.frame)
						reqs = append(reqs, req)
					}
				}
				if err := inferBatchSafe(m, live); err != nil {
					for _, req := range reqs {
						req.err = err
					}
				}
				return items, nil
			},
		},
		{
			Name:    pipeline.StagePost,
			Workers: cfg.PostWorkers,
			Proc: func(_ context.Context, v any) (any, error) {
				req := v.(*request)
				if req.live() {
					req.err = detect.Postprocess(h, req.frame)
				}
				req.deliver()
				return req, nil
			},
		},
	}
	ex, err := pipeline.NewExecutor(cfg.QueueDepth, specs...)
	if err != nil {
		return nil, err
	}
	s.ex = ex

	//skynet:nolint ctxflow -- the pipeline stream lives for the replica's lifetime, not any request's; Close/Drain cancel it, so a fresh root is correct here
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	out, wait := ex.Stream(ctx, s.in)
	go func() {
		// Results are delivered by the post stage; the stream's ordered
		// output only needs draining to keep the executor moving.
		for range out {
		}
		s.runErr = wait()
		close(s.finished)
	}()
	return s, nil
}

// live reports whether the request still needs work: no failure recorded
// yet and a caller still waiting. An expired context is recorded as the
// request's error, so a skipped request can never be delivered to a
// still-listening caller as a zero-box success.
func (r *request) live() bool {
	if r.err != nil {
		return false
	}
	if err := r.ctx.Err(); err != nil {
		r.err = err
		return false
	}
	return true
}

// inferBatchSafe runs one batched forward, converting a model panic into
// ErrInference so a poisoned batch fails its requests, not the stream.
func inferBatchSafe(m detect.Model, frames []*detect.Frame) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: panic: %v", ErrInference, rec)
		}
	}()
	if len(frames) == 0 {
		return nil
	}
	if err := detect.InferBatch(m, frames); err != nil {
		return fmt.Errorf("%w: %v", ErrInference, err)
	}
	return nil
}

// Submit runs one detection through the serving pipeline: admission queue,
// micro-batched inference, decode. It blocks until the result is ready,
// the context fires, or the request is rejected at admission. When ctx has
// no deadline, Config.RequestTimeout is applied.
func (s *replica) Submit(ctx context.Context, img *tensor.Tensor) (detect.Box, float64, error) {
	if _, ok := ctx.Deadline(); !ok && s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	req := &request{
		ctx:   ctx,
		frame: &detect.Frame{Image: img},
		done:  make(chan result, 1),
		enq:   time.Now(),
	}

	// Admission: non-blocking send under the read lock, so a concurrent
	// Drain cannot close the queue between the draining check and the send.
	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		return detect.Box{}, 0, ErrDraining
	}
	admitted := false
	select {
	case s.in <- req:
		admitted = true
	default:
	}
	s.mu.RUnlock()
	if !admitted {
		s.rejected.Add(1)
		return detect.Box{}, 0, ErrOverloaded
	}

	select {
	case res := <-req.done:
		s.hist.Observe(time.Since(req.enq))
		if res.err != nil {
			s.failed.Add(1)
			return detect.Box{}, 0, res.err
		}
		s.served.Add(1)
		return res.box, res.conf, nil
	case <-ctx.Done():
		// The request is still in the pipeline; its stages will see the
		// expired context and skip the remaining work.
		s.expired.Add(1)
		return detect.Box{}, 0, ctx.Err()
	}
}

// Drain gracefully shuts the replica down: new submissions are refused with
// ErrDraining, queued and in-flight requests complete, and the pipeline
// exits. It returns when the drain finishes or ctx fires (the drain keeps
// completing in the background either way). Drain is idempotent.
func (s *replica) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.in)
	}
	s.mu.Unlock()
	select {
	case <-s.finished:
		return s.runErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close abandons the pipeline immediately: in-flight requests fail with
// the stream's cancellation. Prefer Drain; Close is the hard stop.
func (s *replica) Close() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.in)
	}
	s.mu.Unlock()
	s.cancel()
	<-s.finished
}

// Draining reports whether the replica has begun shutting down.
func (s *replica) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}
