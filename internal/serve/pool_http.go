package serve

// The service's HTTP front end: POST /detect takes a detect.Request (JSON
// image tensor) and answers with a detect.Response; GET /metrics exports
// the PoolMetrics snapshot; GET /healthz is the load-balancer probe (503
// while draining); /debug/pprof/* exposes the standard profiles; an
// attached TrackService adds the /track routes; and POST /admin/swap cuts
// the pool over to a new model generation under live load. Every /detect
// response carries an X-Skynet-Generation header naming the replica
// generation that produced it, which is how the swap tests observe the
// cutover. Detection failures map to the conventional statuses: 429 with
// Retry-After: 1 when the fleet is saturated, 503 on drain, 504 on a
// request deadline, 500 on an inference failure. A saturated fleet is shed
// before the request body is decoded (Pool.shedFast), so the 429 path costs
// a queue-length check, not a multi-megabyte JSON parse.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"skynet/internal/detect"
)

// SwapRequest is the wire form of POST /admin/swap. The serve package does
// not know how to load weights; PoolConfig.SwapLoader interprets the
// request (a checkpoint path, a quantize directive — whatever the deployment
// supports) and returns the factory for the next generation.
type SwapRequest struct {
	// Ckpt names a checkpoint file to load the next generation from.
	Ckpt string `json:"ckpt,omitempty"`
	// Quantize requests an int8 lowering of the loaded model.
	Quantize bool `json:"quantize,omitempty"`
	// Calib is the calibration scene count for Quantize; 0 selects the
	// loader's default.
	Calib int `json:"calib,omitempty"`
}

// SwapResponse reports a completed swap.
type SwapResponse struct {
	// Generation is the replica generation now serving.
	Generation int64 `json:"generation"`
	// Replicas is the size of the new replica set.
	Replicas int    `json:"replicas"`
	Error    string `json:"error,omitempty"`
}

// Handler returns the pool's HTTP interface.
func (p *Pool) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /detect", p.handleDetect)
	mux.HandleFunc("POST /admin/swap", p.handleSwap)
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	mux.HandleFunc("GET /healthz", healthz(p.Draining))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if p.track != nil {
		p.track.register(mux)
	}
	return mux
}

func (p *Pool) handleDetect(w http.ResponseWriter, r *http.Request) {
	// Two-layer shed, both before the JSON decode: the inflight semaphore
	// bounds total admitted HTTP work (saturation otherwise queues in
	// decode, invisible to every replica bound), and shedFast answers the
	// cheaper all-queues-full case.
	if !p.acquire() {
		p.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, ErrOverloaded)
		return
	}
	defer p.release()
	if p.shedFast() {
		p.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, ErrOverloaded)
		return
	}
	img, err := detect.DecodeRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	box, conf, gen, err := p.submit(r.Context(), img)
	w.Header().Set("X-Skynet-Generation", strconv.FormatInt(gen, 10))
	if err != nil {
		status := detectStatus(err)
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = detect.EncodeResponse(w, detect.Response{Box: box, Conf: conf})
}

func (p *Pool) handleSwap(w http.ResponseWriter, r *http.Request) {
	if p.cfg.SwapLoader == nil {
		writeSwapError(w, http.StatusNotImplemented, errors.New("serve: no swap loader configured"))
		return
	}
	var req SwapRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeSwapError(w, http.StatusBadRequest, err)
		return
	}
	factory, err := p.cfg.SwapLoader(req)
	if err != nil {
		writeSwapError(w, http.StatusBadRequest, err)
		return
	}
	// The drain of the old generation is bounded by SwapTimeout, not by the
	// admin request's context: an impatient admin client must not abandon a
	// half-drained generation.
	//skynet:nolint ctxflow -- deliberate detach (see above): the swap drain must survive an admin client disconnect
	if err := p.Swap(context.Background(), factory); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrDraining) {
			status = http.StatusServiceUnavailable
		}
		writeSwapError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(SwapResponse{Generation: p.Generation(), Replicas: p.Replicas()})
}

func (p *Pool) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(p.Metrics())
}

// healthz is the load-balancer probe shared by every front end: 200 while
// serving, 503 once draining has begun.
func healthz(draining func() bool) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		if draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	}
}

// detectStatus maps detection-path errors onto HTTP statuses.
func detectStatus(err error) int {
	switch {
	case errors.Is(err, ErrBadInput):
		return http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = detect.EncodeResponse(w, detect.Response{Error: err.Error()})
}

func writeSwapError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(SwapResponse{Error: err.Error()})
}

// ListenAndServe runs the pool's front end on addr until ctx is cancelled,
// then drains gracefully with drainTimeout.
func (p *Pool) ListenAndServe(ctx context.Context, addr string, drainTimeout time.Duration) error {
	return listenAndDrain(ctx, addr, p.Handler(), p.Drain, drainTimeout)
}

// listenAndDrain serves h on addr until ctx is cancelled, then drains
// gracefully: the listener stops taking connections, drain refuses new work
// and lets in-flight requests finish, and both get drainTimeout. It returns
// the first serve or drain error.
func listenAndDrain(ctx context.Context, addr string, h http.Handler, drain func(context.Context) error, drainTimeout time.Duration) error {
	hs := &http.Server{Addr: addr, Handler: h}
	errc := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	//skynet:nolint ctxflow -- ctx is already cancelled at this point; the drain budget needs a fresh root or the graceful drain would be skipped entirely
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := drain(dctx)
	shutErr := hs.Shutdown(dctx)
	if drainErr != nil {
		return drainErr
	}
	return shutErr
}
