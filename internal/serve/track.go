package serve

// Tracking-as-a-service: the paper's §7 extension (SiamRPN++/SiamMask
// tracking, Tables 8/9) as a streaming workload instead of an offline
// batch experiment. POST /track/start fixes a template (one
// ExemplarFeatures forward) and returns a session ID; subsequent frame
// posts return per-frame boxes (and, for mask-head trackers, the peak mask
// patch) by driving StepBox/PeakMask through the same streaming executor
// the detection path uses. Sessions live in a bounded table with TTL
// eviction — millions of concurrent sessions means per-session state must
// be compact, so the table measures bytes/session and /metrics reports it.
//
// Per-frame inference for one session is serialized by a per-session lock
// (frames of a stream are causally ordered: each step consumes the
// previous step's box), while distinct sessions batch together through the
// micro-batching inference stage. Results are byte-identical to the
// offline Tracker.Track loop regardless of interleaving, because every
// step is a pure function of (template, frame, box) and the tracker's
// forwards run on a single inference worker.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"skynet/internal/detect"
	"skynet/internal/pipeline"
	"skynet/internal/tensor"
	"skynet/internal/track"
)

// Sentinel errors of the tracking service.
var (
	// ErrBadTrackRequest marks a malformed session request (bad tensor
	// shape, degenerate box, geometry the tracker rejects) — HTTP 400.
	ErrBadTrackRequest = errors.New("serve: bad tracking request")
	// ErrNoSession means the session ID is unknown or already evicted —
	// HTTP 404.
	ErrNoSession = errors.New("serve: unknown or expired session")
	// ErrSessionTableFull means the bounded session table has no room for
	// a new session — HTTP 429; retry after TTL pressure clears.
	ErrSessionTableFull = errors.New("serve: session table full")
	// ErrTracking wraps an unexpected (panicking) tracker failure — HTTP 500.
	ErrTracking = errors.New("serve: tracking failed")
)

// Stage names of the tracking pipeline. The inference stage deliberately
// does NOT reuse pipeline.StageInfer: a replica's Metrics selects the headline
// batching metrics by that name, and the tracking pipeline's batching
// stage must not shadow the detection one.
const (
	stageTrackPre   = "track-pre"
	stageTrackInfer = "track-inference"
	stageTrackPost  = "track-post"
)

// TrackConfig tunes a TrackService. The zero value selects
// serving-appropriate defaults.
type TrackConfig struct {
	// MaxSessions bounds the session table; 0 selects 1024. A full table
	// rejects new sessions with ErrSessionTableFull.
	MaxSessions int
	// TTL is how long an idle session survives before eviction; 0 selects
	// 5 minutes.
	TTL time.Duration
	// SweepEvery is the janitor period; 0 selects TTL/4 (bounded to
	// [100ms, 30s]).
	SweepEvery time.Duration
	// MaxBatch caps the inference micro-batch across sessions; 0 selects 4.
	MaxBatch int
	// MaxDelay bounds how long a partial batch waits; 0 selects 2ms.
	MaxDelay time.Duration
	// QueueDepth bounds the admission queue; 0 selects 64.
	QueueDepth int
	// PreWorkers / PostWorkers scale the CPU-side stages; 0 selects 2.
	PreWorkers  int
	PostWorkers int
	// RequestTimeout is the per-frame deadline applied when the caller's
	// context has none; 0 selects 5s. Negative disables the default.
	RequestTimeout time.Duration
}

func (c *TrackConfig) normalize() {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.TTL <= 0 {
		c.TTL = 5 * time.Minute
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = c.TTL / 4
		if c.SweepEvery < 100*time.Millisecond {
			c.SweepEvery = 100 * time.Millisecond
		}
		if c.SweepEvery > 30*time.Second {
			c.SweepEvery = 30 * time.Second
		}
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4
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

// session is one tracked object's state between frames: the cached
// template features and the last box. mu serializes the session's frames;
// lastNS feeds TTL eviction.
type session struct {
	id     string
	mu     sync.Mutex
	zf     *tensor.Tensor
	box    detect.Box
	frames atomic.Int64
	lastNS atomic.Int64
	bytes  int64
}

// sessionOverheadBytes estimates the fixed per-session cost beyond the
// template tensor: the session struct, its ID string, and the table's map
// entry. Kept as an explicit constant so the bytes/session metric stays
// honest about what it counts.
const sessionOverheadBytes = 192

func (s *session) touch() { s.lastNS.Store(time.Now().UnixNano()) }

// trackOp is the kind of work one tracking request carries.
type trackOp int

const (
	opStart trackOp = iota
	opStep
)

// trackReq is one in-flight tracking call riding the shared executor.
type trackReq struct {
	ctx      context.Context
	op       trackOp
	frame    *tensor.Tensor
	box      detect.Box // init box (start) or previous box (step)
	zf       *tensor.Tensor
	withMask bool

	// results, owned by the inference stage
	outBox  detect.Box
	outZF   *tensor.Tensor
	outMask *tensor.Tensor
	err     error

	done chan struct{}
	enq  time.Time
}

func (r *trackReq) live() bool {
	if r.err != nil {
		return false
	}
	if err := r.ctx.Err(); err != nil {
		r.err = err
		return false
	}
	return true
}

// TrackService exposes one Siamese tracker as a stateful concurrent
// service. Create with NewTrackService, stop with Drain or Close. It can
// run standalone (Handler) or attached to a detection Pool (Pool.Attach).
type TrackService struct {
	cfg TrackConfig
	tr  *track.Tracker
	ex  *pipeline.Executor

	mu       sync.RWMutex // guards sessions, draining, sends on in
	sessions map[string]*session
	draining bool
	in       chan any

	cancel   context.CancelFunc
	finished chan struct{}
	janitor  chan struct{} // closed to stop the sweeper
	runErr   error

	hist    *Histogram
	nextID  atomic.Int64
	started atomic.Int64
	stepped atomic.Int64
	failed  atomic.Int64
	reject  atomic.Int64
	evicted atomic.Int64
}

// NewTrackService starts the tracking pipeline around one tracker. The
// tracker is driven from a single inference worker (its graph forwards
// share buffers and are not concurrency-safe); distinct sessions still
// batch through the micro-batching stage.
func NewTrackService(tr *track.Tracker, cfg TrackConfig) (*TrackService, error) {
	if tr == nil {
		return nil, errors.New("serve: tracker is required")
	}
	cfg.normalize()
	s := &TrackService{
		cfg:      cfg,
		tr:       tr,
		sessions: make(map[string]*session),
		in:       make(chan any, cfg.QueueDepth),
		finished: make(chan struct{}),
		janitor:  make(chan struct{}),
		hist:     NewHistogram(),
	}

	specs := []pipeline.StageSpec{
		{
			Name:    stageTrackPre,
			Workers: cfg.PreWorkers,
			Proc: func(_ context.Context, v any) (any, error) {
				req := v.(*trackReq)
				if req.live() {
					req.err = validateTrackReq(req)
				}
				return req, nil
			},
		},
		{
			Name:     stageTrackInfer,
			MaxBatch: cfg.MaxBatch,
			MaxDelay: cfg.MaxDelay,
			Batch: func(_ context.Context, items []any) ([]any, error) {
				for _, v := range items {
					req := v.(*trackReq)
					if req.live() {
						req.err = s.inferOne(req)
					}
				}
				return items, nil
			},
		},
		{
			Name:    stageTrackPost,
			Workers: cfg.PostWorkers,
			Proc: func(_ context.Context, v any) (any, error) {
				req := v.(*trackReq)
				close(req.done)
				return req, nil
			},
		},
	}
	ex, err := pipeline.NewExecutor(cfg.QueueDepth, specs...)
	if err != nil {
		return nil, err
	}
	s.ex = ex

	//skynet:nolint ctxflow -- the pipeline stream lives for the service's lifetime, not any request's; Close/Drain cancel it, so a fresh root is correct here
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	out, wait := ex.Stream(ctx, s.in)
	go func() {
		for range out {
		}
		s.runErr = wait()
		close(s.finished)
	}()
	go s.sweep()
	return s, nil
}

// validateTrackReq performs the cheap, parallel pre-stage checks; geometry
// the tracker itself rejects is caught again (as an error, not a panic) in
// the inference stage.
func validateTrackReq(r *trackReq) error {
	if r.frame == nil || r.frame.Rank() != 3 || r.frame.Dim(0) != 3 {
		return fmt.Errorf("%w: frame must be a [3,H,W] tensor", ErrBadTrackRequest)
	}
	if r.op == opStep && r.zf == nil {
		return fmt.Errorf("%w: step without template features", ErrBadTrackRequest)
	}
	return nil
}

// inferOne executes one tracking op on the single inference worker,
// converting tracker errors into 400-class failures and panics into
// ErrTracking, so a poisoned request can never take down the stream.
func (s *TrackService) inferOne(req *trackReq) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: panic: %v", ErrTracking, rec)
		}
	}()
	switch req.op {
	case opStart:
		zf, zerr := s.tr.ExemplarFeaturesFor(req.frame, req.box)
		if zerr != nil {
			return fmt.Errorf("%w: %v", ErrBadTrackRequest, zerr)
		}
		req.outZF = zf
	case opStep:
		box, serr := s.tr.StepBoxE(req.zf, req.frame, req.box)
		if serr != nil {
			return fmt.Errorf("%w: %v", ErrBadTrackRequest, serr)
		}
		req.outBox = box
		if req.withMask {
			mask, merr := s.tr.PeakMaskE(req.zf, req.frame, req.box)
			if merr != nil {
				return fmt.Errorf("%w: %v", ErrBadTrackRequest, merr)
			}
			req.outMask = mask
		}
	}
	return nil
}

// submit runs one request through the pipeline and waits for its result.
func (s *TrackService) submit(ctx context.Context, req *trackReq) error {
	if _, ok := ctx.Deadline(); !ok && s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	req.ctx = ctx
	req.done = make(chan struct{})
	req.enq = time.Now()

	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		return ErrDraining
	}
	admitted := false
	select {
	case s.in <- req:
		admitted = true
	default:
	}
	s.mu.RUnlock()
	if !admitted {
		s.reject.Add(1)
		return ErrOverloaded
	}

	select {
	case <-req.done:
		s.hist.Observe(time.Since(req.enq))
		if req.err != nil {
			s.failed.Add(1)
			return req.err
		}
		return nil
	case <-ctx.Done():
		s.failed.Add(1)
		return ctx.Err()
	}
}

// Start fixes a template from one frame and its initial box, creating a
// session. It returns the session ID and the session's measured resident
// bytes (template tensor + fixed overhead).
func (s *TrackService) Start(ctx context.Context, frame *tensor.Tensor, box detect.Box) (string, int64, error) {
	// Check the bound before paying for a forward; the insert re-checks
	// under the lock.
	if !s.roomForSession() {
		s.reject.Add(1)
		return "", 0, ErrSessionTableFull
	}
	req := &trackReq{op: opStart, frame: frame, box: box}
	if err := s.submit(ctx, req); err != nil {
		return "", 0, err
	}
	sess := &session{
		id:    fmt.Sprintf("t-%d", s.nextID.Add(1)),
		zf:    req.outZF,
		box:   box,
		bytes: int64(req.outZF.Len()*4) + sessionOverheadBytes,
	}
	sess.touch()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return "", 0, ErrDraining
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.reject.Add(1)
		return "", 0, ErrSessionTableFull
	}
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	s.started.Add(1)
	return sess.id, sess.bytes, nil
}

// roomForSession reports whether the table can take one more session,
// evicting expired sessions first if it looks full.
func (s *TrackService) roomForSession() bool {
	s.mu.RLock()
	n := len(s.sessions)
	s.mu.RUnlock()
	if n < s.cfg.MaxSessions {
		return true
	}
	s.evictExpired()
	s.mu.RLock()
	n = len(s.sessions)
	s.mu.RUnlock()
	return n < s.cfg.MaxSessions
}

// lookup returns a live session, lazily evicting it when expired.
func (s *TrackService) lookup(id string) (*session, error) {
	s.mu.RLock()
	sess := s.sessions[id]
	s.mu.RUnlock()
	if sess == nil {
		return nil, ErrNoSession
	}
	if time.Since(time.Unix(0, sess.lastNS.Load())) > s.cfg.TTL {
		s.mu.Lock()
		if s.sessions[id] == sess {
			delete(s.sessions, id)
			s.evicted.Add(1)
		}
		s.mu.Unlock()
		return nil, ErrNoSession
	}
	return sess, nil
}

// Step advances one session by one frame, returning the new box and — for
// mask-head trackers when withMask is set — the peak mask patch. Frames of
// one session are serialized; concurrent Step calls on the same session
// queue on its lock.
func (s *TrackService) Step(ctx context.Context, id string, frame *tensor.Tensor, withMask bool) (detect.Box, *tensor.Tensor, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return detect.Box{}, nil, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	req := &trackReq{op: opStep, frame: frame, box: sess.box, zf: sess.zf, withMask: withMask}
	//skynet:nolint lockheld -- blocking under sess.mu is the point: one session's frames are serialized while other sessions proceed; submit is bounded by the request deadline
	if err := s.submit(ctx, req); err != nil {
		return detect.Box{}, nil, err
	}
	sess.box = req.outBox
	sess.frames.Add(1)
	sess.touch()
	s.stepped.Add(1)
	return req.outBox, req.outMask, nil
}

// Stop deletes a session, reporting whether it existed.
func (s *TrackService) Stop(id string) bool {
	s.mu.Lock()
	_, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	return ok
}

// evictExpired removes every session idle past the TTL.
func (s *TrackService) evictExpired() {
	cutoff := time.Now().Add(-s.cfg.TTL).UnixNano()
	s.mu.Lock()
	for id, sess := range s.sessions {
		if sess.lastNS.Load() < cutoff {
			delete(s.sessions, id)
			s.evicted.Add(1)
		}
	}
	s.mu.Unlock()
}

// sweep is the TTL janitor goroutine.
func (s *TrackService) sweep() {
	t := time.NewTicker(s.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.evictExpired()
		case <-s.janitor:
			return
		}
	}
}

// Drain gracefully shuts the service down: new work is refused with
// ErrDraining, in-flight frames complete, the janitor stops. Idempotent.
func (s *TrackService) Drain(ctx context.Context) error {
	s.beginShutdown()
	select {
	case <-s.finished:
		return s.runErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close abandons the pipeline immediately.
func (s *TrackService) Close() {
	s.beginShutdown()
	s.cancel()
	<-s.finished
}

func (s *TrackService) beginShutdown() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.in)
		close(s.janitor)
	}
	s.mu.Unlock()
}

// Draining reports whether the service has begun shutting down.
func (s *TrackService) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// TrackMetrics is the tracking slice of the /metrics snapshot.
type TrackMetrics struct {
	// Sessions is the live session count; SessionCap the table bound.
	Sessions   int `json:"sessions"`
	SessionCap int `json:"session_cap"`

	// Started counts created sessions; Steps served frame advances;
	// Failed per-request errors; Rejected admissions shed (full table or
	// full queue); Evicted TTL evictions.
	Started  int64 `json:"started"`
	Steps    int64 `json:"steps"`
	Failed   int64 `json:"failed"`
	Rejected int64 `json:"rejected"`
	Evicted  int64 `json:"evicted"`

	// MeanSessionBytes is the measured resident footprint per live
	// session (template tensor + fixed overhead) — the compactness number
	// a million-session deployment is sized by.
	MeanSessionBytes int64 `json:"mean_session_bytes"`

	Latency LatencySummary `json:"latency"`

	// Stages is the tracking executor's per-stage occupancy breakdown.
	Stages []pipelineStageJSON `json:"stages"`
}

// Metrics snapshots the tracking service's counters.
func (s *TrackService) Metrics() TrackMetrics {
	m := TrackMetrics{
		SessionCap: s.cfg.MaxSessions,
		Started:    s.started.Load(),
		Steps:      s.stepped.Load(),
		Failed:     s.failed.Load(),
		Rejected:   s.reject.Load(),
		Evicted:    s.evicted.Load(),
		Latency:    s.hist.Summary(),
	}
	var bytes int64
	s.mu.RLock()
	m.Sessions = len(s.sessions)
	for _, sess := range s.sessions {
		bytes += sess.bytes
	}
	s.mu.RUnlock()
	if m.Sessions > 0 {
		m.MeanSessionBytes = bytes / int64(m.Sessions)
	}
	for _, st := range s.ex.Stats() {
		m.Stages = append(m.Stages, stageJSON(st))
	}
	return m
}

// --- wire types ---

// TrackStartRequest starts a session: one [3,H,W] frame plus the initial
// box (the GOT-10k one-shot protocol's ground-truth init).
type TrackStartRequest struct {
	Shape []int      `json:"shape"`
	Data  []float32  `json:"data"`
	Box   detect.Box `json:"box"`
}

// TrackStartResponse returns the session handle.
type TrackStartResponse struct {
	Session string `json:"session"`
	// BytesPerSession is the measured resident footprint of this session.
	BytesPerSession int64  `json:"bytes_per_session"`
	Error           string `json:"error,omitempty"`
}

// TrackStepRequest advances a session by one frame. Mask requests the
// SiamMask peak mask patch alongside the box.
type TrackStepRequest struct {
	Session string    `json:"session"`
	Shape   []int     `json:"shape"`
	Data    []float32 `json:"data"`
	Mask    bool      `json:"mask,omitempty"`
}

// TrackStepResponse carries the advanced box (and optional mask patch,
// as shape+data like every tensor on this wire).
type TrackStepResponse struct {
	Box   detect.Box      `json:"box"`
	Mask  *detect.Request `json:"mask,omitempty"`
	Error string          `json:"error,omitempty"`
}

// TrackStopRequest closes a session.
type TrackStopRequest struct {
	Session string `json:"session"`
}

// --- HTTP front end ---

// register mounts the tracking routes on a mux (the pool's front end, or
// the standalone Handler).
func (s *TrackService) register(mux *http.ServeMux) {
	mux.HandleFunc("POST /track/start", s.handleStart)
	mux.HandleFunc("POST /track/step", s.handleStep)
	mux.HandleFunc("POST /track/stop", s.handleStop)
}

// Handler returns a standalone HTTP interface for a tracking-only
// deployment, which has no detection model to build a Pool from: the
// /track routes plus /metrics and /healthz.
func (s *TrackService) Handler() http.Handler {
	mux := http.NewServeMux()
	s.register(mux)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Metrics())
	})
	mux.HandleFunc("GET /healthz", healthz(s.Draining))
	return mux
}

// ListenAndServe runs the standalone tracking front end on addr until ctx
// is cancelled, then drains: new work is refused, in-flight frames get
// drainTimeout to finish.
func (s *TrackService) ListenAndServe(ctx context.Context, addr string, drainTimeout time.Duration) error {
	return listenAndDrain(ctx, addr, s.Handler(), s.Drain, drainTimeout)
}

func (s *TrackService) handleStart(w http.ResponseWriter, r *http.Request) {
	var req TrackStartRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeTrackError(w, http.StatusBadRequest, fmt.Errorf("%w: %v", ErrBadTrackRequest, err))
		return
	}
	frame, err := detect.Request{Shape: req.Shape, Data: req.Data}.Tensor()
	if err != nil {
		writeTrackError(w, http.StatusBadRequest, fmt.Errorf("%w: %v", ErrBadTrackRequest, err))
		return
	}
	id, bytes, err := s.Start(r.Context(), frame, req.Box)
	if err != nil {
		writeTrackError(w, trackStatus(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(TrackStartResponse{Session: id, BytesPerSession: bytes})
}

func (s *TrackService) handleStep(w http.ResponseWriter, r *http.Request) {
	var req TrackStepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeTrackError(w, http.StatusBadRequest, fmt.Errorf("%w: %v", ErrBadTrackRequest, err))
		return
	}
	frame, err := detect.Request{Shape: req.Shape, Data: req.Data}.Tensor()
	if err != nil {
		writeTrackError(w, http.StatusBadRequest, fmt.Errorf("%w: %v", ErrBadTrackRequest, err))
		return
	}
	box, mask, err := s.Step(r.Context(), req.Session, frame, req.Mask)
	if err != nil {
		writeTrackError(w, trackStatus(err), err)
		return
	}
	resp := TrackStepResponse{Box: box}
	if mask != nil {
		mr := detect.NewRequest(mask)
		resp.Mask = &mr
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

func (s *TrackService) handleStop(w http.ResponseWriter, r *http.Request) {
	var req TrackStopRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeTrackError(w, http.StatusBadRequest, fmt.Errorf("%w: %v", ErrBadTrackRequest, err))
		return
	}
	if !s.Stop(req.Session) {
		writeTrackError(w, http.StatusNotFound, ErrNoSession)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("{}\n"))
}

// trackStatus maps service errors onto HTTP statuses.
func trackStatus(err error) int {
	switch {
	case errors.Is(err, ErrBadTrackRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrNoSession):
		return http.StatusNotFound
	case errors.Is(err, ErrSessionTableFull), errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

func writeTrackError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(TrackStepResponse{Error: err.Error()})
}
