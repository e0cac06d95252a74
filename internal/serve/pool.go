package serve

// Replica pool: the serving layer's one front end. A replica pins inference
// to one worker (Graph forwards share buffers and are not concurrency-safe),
// so one replica can never use more than one core for the forward pass. The
// Pool holds N replicas — each its own private model instance with its own
// reuse buffers, admission queue and streaming executor — behind a routing
// tier that shards requests by frame content hash. Sharding gives duplicate
// frames a stable home (so the response cache and the per-replica batcher
// both see the repeats), while bounded per-replica admission propagates
// backpressure outward: a request whose home replica is full is offered to
// every sibling before the pool sheds it with 429, so the pool only rejects
// when the whole fleet is saturated.
//
// Model hot-swap is generation-based: Swap builds a complete new replica
// set from a ModelFactory, atomically publishes it as the next generation,
// invalidates the response cache, and only then drains the old generation —
// in-flight requests on old replicas finish on the weights they started
// with, new arrivals route to the new weights, and no request is ever
// dropped. A request that loses the race (admitted nowhere because its
// snapshot of the fleet began draining) retries on the freshly published
// generation instead of failing.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"skynet/internal/detect"
	"skynet/internal/tensor"
)

// ModelFactory builds one private model+head pair. The pool calls it once
// per replica — instances are never shared across replicas, which is what
// lets N inference workers run concurrently — and again for every replica
// of a hot-swap's new generation.
type ModelFactory func() (detect.Model, *detect.Head, error)

// PoolConfig tunes a Pool. The zero value selects serving defaults.
type PoolConfig struct {
	// Replicas is the number of model instances; 0 selects NumCPU capped
	// at 8.
	Replicas int
	// Replica tunes each replica's admission queue, batching, stage workers
	// and request deadline. Applied identically to every replica.
	Replica Config
	// CacheEntries bounds the response cache; 0 selects 4096, negative
	// disables caching.
	CacheEntries int
	// MaxInflight bounds concurrently admitted HTTP requests across the
	// fleet — decode included, which matters: on a saturated box the queue
	// that actually grows without bound is handler goroutines parked in
	// JSON decode before they ever reach a replica's admission queue, and
	// no per-replica bound can see them. 0 selects Replicas×(QueueDepth+64);
	// negative disables the bound (in-process Submit callers are never
	// subject to it).
	MaxInflight int
	// SwapTimeout bounds how long Swap waits for the old generation to
	// drain; 0 selects 30s. On expiry the old replicas are closed hard.
	SwapTimeout time.Duration
	// SwapLoader, when set, enables POST /admin/swap: it turns the wire
	// request into the factory for the next generation. Nil disables the
	// endpoint (501).
	SwapLoader func(SwapRequest) (ModelFactory, error)
}

func (c *PoolConfig) normalize() {
	if c.Replicas <= 0 {
		c.Replicas = runtime.NumCPU()
		if c.Replicas > 8 {
			c.Replicas = 8
		}
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.MaxInflight == 0 {
		qd := c.Replica.QueueDepth
		if qd <= 0 {
			qd = 64 // Config.normalize's default, mirrored
		}
		c.MaxInflight = c.Replicas * (qd + 64)
	}
	if c.SwapTimeout <= 0 {
		c.SwapTimeout = 30 * time.Second
	}
}

// generation is one immutable replica set. The pool publishes generations
// atomically; a Submit works against the snapshot it loaded.
type generation struct {
	id       int64
	replicas []*replica
}

// Pool is a replica-pool detection service: N private model instances
// behind content-hash routing, a generation-scoped response cache, and
// zero-drop model hot-swap. Create with NewPool, stop with Drain or Close.
type Pool struct {
	cfg    PoolConfig
	gen    atomic.Pointer[generation]
	lastID atomic.Int64
	swapMu sync.Mutex // serializes Swap/Drain/Close generation turnover
	closed atomic.Bool

	cache *respCache
	hist  *Histogram // pool-level success latency, cache hits included

	// inflight is the HTTP-side admission semaphore (nil = unbounded); see
	// PoolConfig.MaxInflight.
	inflight chan struct{}

	cacheServed  atomic.Int64
	siblingSheds atomic.Int64 // overflowed home replica, retried a sibling
	rejected     atomic.Int64 // whole fleet full: shed with 429
	swapRetries  atomic.Int64 // raced a swap; resubmitted on the new generation
	swaps        atomic.Int64

	track *TrackService
}

// NewPool builds cfg.Replicas replicas from the factory and starts serving.
func NewPool(factory ModelFactory, cfg PoolConfig) (*Pool, error) {
	if factory == nil {
		return nil, errors.New("serve: pool needs a model factory")
	}
	cfg.normalize()
	p := &Pool{cfg: cfg, hist: NewHistogram()}
	g, err := p.buildGeneration(factory, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	p.gen.Store(g)
	p.cache = newRespCache(cfg.CacheEntries, g.id)
	if cfg.MaxInflight > 0 {
		p.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	return p, nil
}

// acquire takes one HTTP-inflight slot, reporting false when the fleet is
// already working its bound — the caller sheds without paying for a decode.
func (p *Pool) acquire() bool {
	if p.inflight == nil {
		return true
	}
	select {
	case p.inflight <- struct{}{}:
		return true
	default:
		return false
	}
}

func (p *Pool) release() {
	if p.inflight != nil {
		<-p.inflight
	}
}

// buildGeneration constructs one complete replica set, tearing down the
// partial set on any failure so a bad factory cannot leak pipelines.
func (p *Pool) buildGeneration(factory ModelFactory, n int) (*generation, error) {
	g := &generation{id: p.lastID.Add(1), replicas: make([]*replica, 0, n)}
	for i := 0; i < n; i++ {
		m, h, err := factory()
		if err == nil {
			var s *replica
			s, err = newReplica(m, h, p.cfg.Replica)
			if err == nil {
				g.replicas = append(g.replicas, s)
				continue
			}
		}
		for _, s := range g.replicas {
			s.Close()
		}
		return nil, fmt.Errorf("serve: building replica %d: %w", i, err)
	}
	return g, nil
}

// Attach co-hosts a tracking service on the pool's HTTP front end and folds
// its counters into /metrics. Tracking is stateful (sessions pin their
// template features), so it stays a single shared service rather than a
// replica: call before Handler.
func (p *Pool) Attach(ts *TrackService) { p.track = ts }

// Submit routes one detection through the pool: cache, then the frame's
// home replica, then every sibling, then — if the snapshot it raced was a
// draining generation — the freshly swapped-in one.
func (p *Pool) Submit(ctx context.Context, img *tensor.Tensor) (detect.Box, float64, error) {
	box, conf, _, err := p.submit(ctx, img)
	return box, conf, err
}

// submit is Submit plus the serving generation ID (for the
// X-Skynet-Generation response header and the swap tests).
func (p *Pool) submit(ctx context.Context, img *tensor.Tensor) (detect.Box, float64, int64, error) {
	t0 := time.Now()
	key := hashFrame(img)
	g := p.gen.Load()
	if g == nil {
		return detect.Box{}, 0, 0, ErrDraining
	}
	if box, conf, ok := p.cache.get(key); ok {
		p.cacheServed.Add(1)
		p.hist.Observe(time.Since(t0))
		return box, conf, g.id, nil
	}

	// A swap mid-request can leave the loaded snapshot fully draining; one
	// retry per published generation is enough, and the attempt bound makes
	// a pathological swap storm fail loudly instead of looping.
	const maxSwapRaces = 4
	for attempt := 0; attempt < maxSwapRaces; attempt++ {
		n := len(g.replicas)
		home := int(key.lo % uint64(n))
		sawOverload := false
		for i := 0; i < n; i++ {
			r := g.replicas[(home+i)%n]
			box, conf, err := r.Submit(ctx, img)
			switch {
			case err == nil:
				p.cache.put(g.id, key, box, conf)
				p.hist.Observe(time.Since(t0))
				return box, conf, g.id, nil
			case errors.Is(err, ErrOverloaded):
				if i == 0 && n > 1 {
					// Home replica full: the request spills to siblings.
					p.siblingSheds.Add(1)
				}
				sawOverload = true
			case errors.Is(err, ErrDraining):
				// Old generation mid-swap; keep probing, then retry on the
				// published generation.
			default:
				// The request's own failure (bad input, deadline, inference
				// error) — routing elsewhere would not change the outcome.
				return detect.Box{}, 0, g.id, err
			}
		}
		if sawOverload {
			// The whole fleet is saturated: shed.
			p.rejected.Add(1)
			return detect.Box{}, 0, g.id, ErrOverloaded
		}
		next := p.gen.Load()
		if next == nil || next == g {
			// Draining with no successor: the pool itself is shutting down.
			return detect.Box{}, 0, g.id, ErrDraining
		}
		g = next
		p.swapRetries.Add(1)
	}
	return detect.Box{}, 0, g.id, ErrDraining
}

// shedFast reports whether every replica's admission queue is full right
// now. The HTTP front end consults it before decoding a request body, so a
// saturated fleet sheds at the router for the price of a length check
// instead of a full JSON decode — backpressure propagated all the way out
// to the socket. Racy by design: the authoritative admission decision is
// still each replica's queue.
func (p *Pool) shedFast() bool {
	g := p.gen.Load()
	if g == nil {
		return false // let Submit return ErrDraining with the right status
	}
	for _, r := range g.replicas {
		if len(r.in) < cap(r.in) {
			return false
		}
	}
	return true
}

// Swap cuts the pool over to a new model generation with zero dropped
// requests: the new replica set is built and published first, the response
// cache resets to the new generation, and only then does the old
// generation drain (in-flight requests finish on their original weights).
// One swap runs at a time; a failed factory leaves the old generation
// serving untouched.
func (p *Pool) Swap(ctx context.Context, factory ModelFactory) error {
	if factory == nil {
		return errors.New("serve: swap needs a model factory")
	}
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	if p.closed.Load() {
		return ErrDraining
	}
	old := p.gen.Load()
	//skynet:nolint lockheld -- swapMu serializes admin ops (Swap/Drain/Close) only; the request path reads p.gen atomically and never takes it, so blocking here stalls no requests
	g, err := p.buildGeneration(factory, len(old.replicas))
	if err != nil {
		return err
	}
	p.gen.Store(g)
	p.cache.reset(g.id)
	p.swaps.Add(1)

	dctx := ctx
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, p.cfg.SwapTimeout)
		defer cancel()
	}
	//skynet:nolint lockheld -- swapMu serializes admin ops only; the old generation drains while the new one (already published) serves lock-free
	if err := drainAll(dctx, old.replicas); err != nil {
		// The budget ran out; hard-stop the stragglers so the old
		// generation cannot leak. The new generation is already serving.
		for _, r := range old.replicas {
			//skynet:nolint lockheld -- swapMu serializes admin ops only; hard-stopping stragglers cannot stall the request path
			r.Close()
		}
		return fmt.Errorf("serve: draining generation %d: %w", old.id, err)
	}
	return nil
}

// drainAll drains every replica concurrently and returns the first error.
func drainAll(ctx context.Context, replicas []*replica) error {
	errc := make(chan error, len(replicas))
	for _, r := range replicas {
		go func(r *replica) { errc <- r.Drain(ctx) }(r)
	}
	var first error
	for range replicas {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Generation returns the ID of the currently serving replica set.
func (p *Pool) Generation() int64 {
	if g := p.gen.Load(); g != nil {
		return g.id
	}
	return 0
}

// Replicas returns the size of the active replica set.
func (p *Pool) Replicas() int {
	if g := p.gen.Load(); g != nil {
		return len(g.replicas)
	}
	return 0
}

// Drain gracefully shuts the pool down: every replica refuses new work,
// in-flight requests complete. Idempotent; an attached TrackService is
// drained too.
func (p *Pool) Drain(ctx context.Context) error {
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	p.closed.Store(true)
	g := p.gen.Load()
	if g == nil {
		return nil
	}
	//skynet:nolint lockheld -- swapMu serializes admin ops only; holding it for the whole drain is what makes Drain/Swap mutually exclusive
	err := drainAll(ctx, g.replicas)
	if p.track != nil {
		//skynet:nolint lockheld -- swapMu serializes admin ops only; see the drainAll waiver above
		if terr := p.track.Drain(ctx); err == nil {
			err = terr
		}
	}
	return err
}

// Close abandons every replica immediately. Prefer Drain.
func (p *Pool) Close() {
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	p.closed.Store(true)
	if g := p.gen.Load(); g != nil {
		for _, r := range g.replicas {
			//skynet:nolint lockheld -- swapMu serializes admin ops only; Close abandons replicas and must exclude a concurrent Swap
			r.Close()
		}
	}
	if p.track != nil {
		//skynet:nolint lockheld -- swapMu serializes admin ops only; see the replica Close waiver above
		p.track.Close()
	}
}

// Draining reports whether the pool has begun shutting down.
func (p *Pool) Draining() bool { return p.closed.Load() }
