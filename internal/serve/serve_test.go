package serve

// Failure-mode tests for the serving layer, written to run under -race:
// admission overflow sheds with 429, cancelled requests leak no
// goroutines, drain completes in-flight work, and a panicking model
// converts to per-request 500s without killing the shared stream. They run
// on a one-replica pool with the response cache off, so a repeated frame
// still reaches the model and the Served counts stay exact.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skynet/internal/detect"
	"skynet/internal/tensor"
)

// stubModel is a controllable detect.Model: an optional gate blocks every
// forward until released, a flag turns forwards into panics, and batch
// sizes are recorded. The output derives deterministically from the input
// so distinct images decode to distinct boxes.
type stubModel struct {
	gate    chan struct{} // nil = never block; closed = released
	panics  atomic.Bool
	mu      sync.Mutex
	batches []int
}

func (m *stubModel) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if m.gate != nil {
		<-m.gate
	}
	if m.panics.Load() {
		panic("stub model poisoned")
	}
	b := x.Dim(0)
	m.mu.Lock()
	m.batches = append(m.batches, b)
	m.mu.Unlock()
	per := x.Dim(1) * x.Dim(2) * x.Dim(3)
	out := tensor.New(b, 10, 1, 1)
	for i := 0; i < b; i++ {
		var sum float32
		for _, v := range x.Data[i*per : (i+1)*per] {
			sum += v
		}
		for c := 0; c < 10; c++ {
			out.Data[i*10+c] = sum / float32(per) * float32(c+1)
		}
	}
	return out
}

func testImage(seed float32) *tensor.Tensor {
	img := tensor.New(3, 8, 8)
	for i := range img.Data {
		img.Data[i] = seed + float32(i)*0.001
	}
	return img
}

// newOneReplicaPool serves m from a one-replica, cache-less pool.
func newOneReplicaPool(t *testing.T, m detect.Model, cfg Config) *Pool {
	t.Helper()
	return newTestPool(t, func() (detect.Model, *detect.Head, error) {
		return m, detect.NewHead(nil), nil
	}, PoolConfig{Replicas: 1, CacheEntries: -1, Replica: cfg})
}

func TestSubmitServes(t *testing.T) {
	s := newOneReplicaPool(t, &stubModel{}, Config{})
	box, conf, err := s.Submit(context.Background(), testImage(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if box.W <= 0 || box.H <= 0 || conf <= 0 || conf > 1 {
		t.Fatalf("degenerate detection %+v conf %v", box, conf)
	}
	m := s.Metrics()
	if m.Served != 1 || m.Failed != 0 || m.Rejected != 0 {
		t.Fatalf("metrics %+v after one success", m)
	}
	if m.Latency.P50MS <= 0 || m.Latency.P99MS < m.Latency.P50MS {
		t.Fatalf("latency summary %+v", m.Latency)
	}
}

func TestSubmitValidatesInput(t *testing.T) {
	s := newOneReplicaPool(t, &stubModel{}, Config{})
	// A rank-2 tensor must fail pre-processing, not kill the stream.
	if _, _, err := s.Submit(context.Background(), tensor.New(4, 4)); err == nil {
		t.Fatal("rank-2 image must be rejected")
	}
	// The stream survives and serves the next request.
	if _, _, err := s.Submit(context.Background(), testImage(0.5)); err != nil {
		t.Fatalf("stream died after a bad request: %v", err)
	}
	if m := s.Metrics(); m.Failed != 1 || m.Served != 1 {
		t.Fatalf("metrics %+v, want 1 failed + 1 served", m)
	}
}

func TestOverflowSheds429(t *testing.T) {
	m := &stubModel{gate: make(chan struct{})}
	s := newOneReplicaPool(t, m, Config{QueueDepth: 1, MaxBatch: 1, PreWorkers: 1, PostWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var body bytes.Buffer
	if err := detect.EncodeRequest(&body, testImage(0.1)); err != nil {
		t.Fatal(err)
	}
	payload := body.Bytes()

	// With inference gated shut, the pipeline can absorb only a handful of
	// requests (queue + stage buffers); the rest must shed immediately.
	const n = 24
	statuses := make(chan int, n)
	retryAfter := make(chan string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/detect", "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Errorf("transport error: %v", err)
				return
			}
			defer resp.Body.Close()
			_, _ = io.Copy(io.Discard, resp.Body)
			statuses <- resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests {
				retryAfter <- resp.Header.Get("Retry-After")
			}
		}()
	}
	// Release the model once rejections have been observed, so accepted
	// requests finish and the goroutines join.
	deadline := time.After(10 * time.Second)
	for s.Metrics().Rejected == 0 {
		select {
		case <-deadline:
			t.Fatal("no request was shed while inference was gated")
		case <-time.After(time.Millisecond):
		}
	}
	close(m.gate)
	wg.Wait()
	close(statuses)
	close(retryAfter)

	shed, ok := 0, 0
	for st := range statuses {
		switch st {
		case http.StatusTooManyRequests:
			shed++
		case http.StatusOK:
			ok++
		default:
			t.Fatalf("unexpected status %d", st)
		}
	}
	if shed == 0 || ok == 0 {
		t.Fatalf("want both shed and served traffic, got %d shed / %d ok", shed, ok)
	}
	for ra := range retryAfter {
		if ra == "" {
			t.Fatal("429 responses must carry Retry-After")
		}
	}
	if m := s.Metrics(); m.Rejected != int64(shed) {
		t.Fatalf("rejected counter %d, want %d", m.Rejected, shed)
	}
}

func TestCancelledRequestDoesNotLeakGoroutines(t *testing.T) {
	m := &stubModel{gate: make(chan struct{})}
	s := newOneReplicaPool(t, m, Config{QueueDepth: 16, MaxBatch: 4})

	// Warm the pipeline once so lazily started goroutines exist before the
	// baseline count is taken.
	warmCtx, warmCancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, _, _ = s.Submit(warmCtx, testImage(0.2))
	warmCancel()
	baseline := runtime.NumGoroutine()

	const n = 8
	var wg sync.WaitGroup
	var expired atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			_, _, err := s.Submit(ctx, testImage(float32(i)*0.05))
			if errors.Is(err, context.DeadlineExceeded) {
				expired.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if expired.Load() == 0 {
		t.Fatal("no request expired while inference was gated")
	}
	close(m.gate)

	// Every caller goroutine has exited; the pipeline must settle back to
	// its steady-state goroutine count.
	deadline := time.After(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		select {
		case <-deadline:
			t.Fatalf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestDrainCompletesInFlight(t *testing.T) {
	m := &stubModel{gate: make(chan struct{})}
	s := newOneReplicaPool(t, m, Config{QueueDepth: 8, MaxBatch: 4, RequestTimeout: -1})

	const n = 3
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = s.Submit(context.Background(), testImage(float32(i)*0.1))
		}(i)
	}
	// Wait until the in-flight requests are actually inside the pipeline.
	deadline := time.After(5 * time.Second)
	for {
		if st := s.Metrics().ReplicaMetrics[0]; st.QueueDepth > 0 || st.Stages[0].Items > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("requests never entered the pipeline")
		case <-time.After(time.Millisecond):
		}
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// New work is refused while draining.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := s.Submit(context.Background(), testImage(0.9)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining returned %v, want ErrDraining", err)
	}

	close(m.gate) // let the in-flight batch run
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("in-flight request %d failed during drain: %v", i, err)
		}
	}
}

func TestPanicBecomes500AndServerSurvives(t *testing.T) {
	m := &stubModel{}
	m.panics.Store(true)
	s := newOneReplicaPool(t, m, Config{MaxBatch: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func() (*http.Response, detect.Response) {
		var body bytes.Buffer
		if err := detect.EncodeRequest(&body, testImage(0.4)); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/detect", "application/json", &body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		dec, err := detect.DecodeResponse(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, dec
	}

	resp, dec := post()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking inference returned %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(dec.Error, "panic") {
		t.Fatalf("error body %q does not mention the panic", dec.Error)
	}

	// The stream survived: healthz is green and the next request succeeds.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %v %v", hz, err)
	}
	hz.Body.Close()
	m.panics.Store(false)
	resp, dec = post()
	if resp.StatusCode != http.StatusOK || dec.Error != "" {
		t.Fatalf("server did not recover: status %d, error %q", resp.StatusCode, dec.Error)
	}
}

func TestHTTPBadRequest(t *testing.T) {
	s := newOneReplicaPool(t, &stubModel{}, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"garbage":     "not json at all",
		"wrong shape": `{"shape":[4,4],"data":[0,0]}`,
		"data count":  `{"shape":[1,2,2],"data":[0]}`,
	} {
		resp, err := http.Post(ts.URL+"/detect", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestMetricsEndpointAndDrainHealth(t *testing.T) {
	s := newOneReplicaPool(t, &stubModel{}, Config{QueueDepth: 7})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, _, err := s.Submit(context.Background(), testImage(0.7)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pm PoolMetrics
	if err := json.NewDecoder(resp.Body).Decode(&pm); err != nil {
		t.Fatalf("metrics did not parse: %v", err)
	}
	if len(pm.ReplicaMetrics) != 1 {
		t.Fatalf("metrics %+v: want one replica", pm)
	}
	if m := pm.ReplicaMetrics[0]; m.QueueCap != 7 || m.Served != 1 || len(m.Stages) != 3 {
		t.Fatalf("metrics %+v", m)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: %d, want 503", hz.StatusCode)
	}
}

func TestBatchingAggregatesConcurrentRequests(t *testing.T) {
	m := &stubModel{}
	s := newOneReplicaPool(t, m, Config{MaxBatch: 8, MaxDelay: 20 * time.Millisecond, QueueDepth: 64})

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := s.Submit(context.Background(), testImage(float32(i)*0.01)); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if mb := s.Metrics().ReplicaMetrics[0].MeanBatchSize; mb <= 1 {
		t.Fatalf("mean batch size %.2f, want > 1 under concurrent load", mb)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for i := 0; i < 90; i++ {
		h.Observe(1 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	p50, p95, p99 := h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
	if p50 > 3*time.Millisecond || p50 < time.Millisecond/2 {
		t.Fatalf("p50 %v far from 1ms", p50)
	}
	if p95 < 50*time.Millisecond || p99 < p95 {
		t.Fatalf("p95 %v p99 %v not in the tail", p95, p99)
	}
	if m := h.Mean(); m < 5*time.Millisecond || m > 30*time.Millisecond {
		t.Fatalf("mean %v, want ≈ 10.9ms", m)
	}
	// Bucket bounds are monotone.
	for i := 1; i < histBuckets; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucket bound %d not monotone", i)
		}
	}
}

func TestServerRequiresModelAndHead(t *testing.T) {
	factory := func(m detect.Model, h *detect.Head) ModelFactory {
		return func() (detect.Model, *detect.Head, error) { return m, h, nil }
	}
	if _, err := NewPool(factory(nil, detect.NewHead(nil)), PoolConfig{Replicas: 1}); err == nil {
		t.Fatal("nil model must be rejected")
	}
	if _, err := NewPool(factory(&stubModel{}, nil), PoolConfig{Replicas: 1}); err == nil {
		t.Fatal("nil head must be rejected")
	}
}
