package main

// The serving workload: serve.Pool behind a loopback HTTP listener, driven
// by an open loop over keep-alive connections.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"skynet/internal/detect"
	"skynet/internal/pipeline"
	"skynet/internal/serve"
	"skynet/internal/tensor"
)

const (
	// serveInterval fixes the offered load (one request per interval),
	// below the pool's capacity on a 2-CPU host.
	serveInterval = 300 * time.Millisecond
	// repeatEvery: every repeatEvery-th request repeats a frame sent at
	// least repeatMinAge requests earlier, so its answer is cached by then.
	repeatEvery  = 4
	repeatMinAge = 4
	// nudge makes fresh frames distinct: each is a base frame with one
	// pixel raised by 2⁻¹⁰, which misses the content-hash cache and nearly
	// always decodes to the base frame's box (answerCheck covers the rest).
	nudge = 1.0 / 1024
	// warmRequests are sent before the measurement (distinct frames, so
	// every replica is likely to see one).
	warmRequests = 6
	// maxLateP95 bounds how late the generator may send (p95) before the
	// run is marked invalid.
	maxLateP95 = 100 * time.Millisecond
)

// serveReq is one scheduled request. A fresh frame differs from its base
// frame in one pixel, so its encoded body differs from the base frame's
// body in a few bytes: the request keeps only those (mid) and shares the
// rest with the base body. The schedule then adds little to the heap that
// heap_peak_mb measures, and nothing to the GC's pacing of it.
type serveReq struct {
	base     int    // base frame the request's frame is derived from
	pixel    int    // index of the pixel raised by nudge
	shared   []byte // the base frame's encoded body
	pre, suf int    // bytes of shared that the body starts and ends with
	mid      []byte // the body's own bytes between them
}

func (q serveReq) size() int64 { return int64(q.pre + len(q.mid) + q.suf) }

// body returns a reader over the request body, as detect.EncodeRequest
// wrote it.
func (q serveReq) body() io.Reader {
	return io.MultiReader(
		bytes.NewReader(q.shared[:q.pre]),
		bytes.NewReader(q.mid),
		bytes.NewReader(q.shared[len(q.shared)-q.suf:]))
}

// frame rebuilds the request's image from the run's base frames.
func (q serveReq) frame(base []*tensor.Tensor) *tensor.Tensor {
	img := base[q.base].Clone()
	img.Data[q.pixel] += nudge
	return img
}

func encode(img *tensor.Tensor) ([]byte, error) {
	var buf bytes.Buffer
	err := detect.EncodeRequest(&buf, img)
	return buf.Bytes(), err
}

// bodies encodes the warm-up requests and the measured schedule: fresh
// nudged frames, with every repeatEvery-th request repeating an earlier one
// chosen by the seeded generator.
func bodies(r *runner, n int) (warm, sched []serveReq, err error) {
	rng := rand.New(rand.NewSource(r.seed))
	shared := make([][]byte, baseFrames)
	for i := range shared {
		if shared[i], err = encode(r.in.base[i]); err != nil {
			return nil, nil, err
		}
	}
	variant := 0
	fresh := func(base int) (serveReq, error) {
		q := serveReq{base: base, pixel: (variant*7919 + 13) % len(r.in.base[base].Data), shared: shared[base]}
		variant++
		b, err := encode(q.frame(r.in.base))
		if err != nil {
			return serveReq{}, err
		}
		n := min(len(b), len(q.shared))
		for q.pre < n && b[q.pre] == q.shared[q.pre] {
			q.pre++
		}
		for q.suf < n-q.pre && b[len(b)-1-q.suf] == q.shared[len(q.shared)-1-q.suf] {
			q.suf++
		}
		q.mid = bytes.Clone(b[q.pre : len(b)-q.suf])
		return q, nil
	}
	for i := 0; i < warmRequests; i++ {
		q, err := fresh(i % baseFrames)
		if err != nil {
			return nil, nil, err
		}
		warm = append(warm, q)
	}
	var freshIdx []int // schedule positions holding fresh frames
	for j := 0; j < n; j++ {
		var old []int
		for _, k := range freshIdx {
			if k <= j-repeatMinAge {
				old = append(old, k)
			}
		}
		if j%repeatEvery == repeatEvery-1 && len(old) > 0 {
			sched = append(sched, sched[old[rng.Intn(len(old))]])
			continue
		}
		q, err := fresh(rng.Intn(baseFrames))
		if err != nil {
			return nil, nil, err
		}
		freshIdx = append(freshIdx, j)
		sched = append(sched, q)
	}
	return warm, sched, nil
}

// replicas and conns stay at or below nproc.
func replicas() int { return min(2, runtime.NumCPU()) }

// stack is one serving set-up: the pool, its loopback listener and the
// client's keep-alive connections.
type stack struct {
	pool   *serve.Pool
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

func startStack(factory serve.ModelFactory) (*stack, error) {
	pool, err := serve.NewPool(factory, serve.PoolConfig{
		Replicas: replicas(),
		Replica:  serve.Config{MaxBatch: 4, Channels: 3},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pool.Close()
		return nil, err
	}
	s := &stack{
		pool:   pool,
		hs:     &http.Server{Handler: pool.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     replicas(),
			MaxIdleConnsPerHost: replicas(),
			DisableCompression:  true,
		}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and drains the pool, waiting for both.
func (s *stack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	_ = s.hs.Shutdown(ctx) // a drain timeout still closes the listener
	<-s.served
	_ = s.pool.Drain(ctx) // replicas exit when the drain finishes or is abandoned below
	s.pool.Close()
}

func (s *stack) metrics() (serve.PoolMetrics, error) {
	var pm serve.PoolMetrics
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return pm, err
	}
	defer resp.Body.Close()
	return pm, json.NewDecoder(resp.Body).Decode(&pm)
}

// answerCheck checks the pool's answers. A fresh frame nearly always
// decodes to its base frame's expected output. When it does not, it is
// checked against its own output, decoded like the reference (Forward at
// batch 1 outside any executor). The head takes the first cell of highest
// confidence, and on the untrained model two cells' float32 confidences can
// tie at saturation, so one nudged pixel may legitimately move the box to
// the other cell.
type answerCheck struct {
	r   *runner
	own map[[2]int]detection // a fresh frame's own output, by base frame and nudged pixel
}

func newAnswerCheck(r *runner) *answerCheck {
	return &answerCheck{r: r, own: map[[2]int]detection{}}
}

func (a *answerCheck) ok(q serveReq, got detection) bool {
	c := a.r.check
	if c.matches(q.base, got) {
		return true
	}
	key := [2]int{q.base, q.pixel}
	want, seen := a.own[key]
	if !seen {
		// A graph per miss, not one kept: a kept graph and its scratch
		// would sit in the heap that later phases sample.
		want = direct(buildGraph(), []*tensor.Tensor{q.frame(a.r.in.base)})[0]
		a.own[key] = want
	}
	if near(got, want) {
		return true
	}
	c.mismatch(fmt.Sprintf("frame %d nudged at %d: got %+v, its own reference %+v, base reference %+v",
		q.base, q.pixel, got, want, c.ref[q.base]))
	return false
}

// loadStats are the generator's own figures for one open-loop phase.
type loadStats struct {
	late     []time.Duration // send time minus due time
	fromSend []time.Duration // latency from the actual send, for the HTTP overhead
}

// answer is one request's outcome as the generator saw it.
type answer struct {
	q              serveReq
	det            detection
	status         int
	err            error
	due, sent, end time.Time
}

// openLoop sends sched at fixed intervals from replicas() workers, each on
// its own keep-alive connection. A request's latency runs from its due
// time, so a stalled send delays the clock of every request behind it.
// The answers are checked after the phase, outside its memory figures.
func (s *stack) openLoop(check *answerCheck, sched []serveReq, interval time.Duration) (measurement, loadStats) {
	var (
		m       measurement
		ls      loadStats
		mu      sync.Mutex
		next    atomic.Int64
		wg      sync.WaitGroup
		answers []answer
	)
	mw := watchMemory()
	start := time.Now()
	for w := 0; w < replicas(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(sched) {
					return
				}
				due := start.Add(time.Duration(j) * interval)
				time.Sleep(time.Until(due))
				sent := time.Now()
				det, status, err := s.post(sched[j])
				a := answer{sched[j], det, status, err, due, sent, time.Now()}
				mu.Lock()
				answers = append(answers, a)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	mw.finish(&m)

	last := time.Now()
	if len(answers) > 0 {
		last = answers[0].end
	}
	for _, a := range answers {
		m.attempted++
		ls.late = append(ls.late, a.sent.Sub(a.due))
		switch {
		case a.err == nil && a.status == http.StatusOK && check.ok(a.q, a.det):
			m.ok = append(m.ok, a.end.Sub(a.due))
			ls.fromSend = append(ls.fromSend, a.end.Sub(a.sent))
		case a.err == nil && a.status == http.StatusTooManyRequests:
			m.shed++
		default:
			m.failed++
		}
		if a.end.After(last) {
			last = a.end
		}
	}
	m.elapsed = last.Sub(start)
	return m, ls
}

// post sends one /detect request and decodes a 200 answer.
func (s *stack) post(q serveReq) (detection, int, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/detect", q.body())
	if err != nil {
		return detection{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.ContentLength = q.size()
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(q.body()), nil } // lets the transport retry on a closed keep-alive connection
	resp, err := s.client.Do(req)
	if err != nil {
		return detection{}, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drained for keep-alive; the status is the outcome
		return detection{}, resp.StatusCode, nil
	}
	out, err := detect.DecodeResponse(resp.Body)
	if err != nil {
		return detection{}, resp.StatusCode, err
	}
	return detection{out.Box, out.Conf}, resp.StatusCode, nil
}

// setUpServe starts a stack and sends the warm-up requests.
func setUpServe(check *answerCheck, factory serve.ModelFactory, warm []serveReq) (*stack, error) {
	s, err := startStack(factory)
	if err != nil {
		return nil, err
	}
	if m, _ := s.openLoop(check, warm, 0); len(m.ok) != len(warm) {
		s.stop()
		return nil, fmt.Errorf("warm-up: %d of %d requests answered correctly", len(m.ok), len(warm))
	}
	return s, nil
}

func graphFactory() (detect.Model, *detect.Head, error) {
	return buildGraph(), detect.NewHead(nil), nil
}

func runServe(r *runner) error {
	r.check.setReference(direct(buildGraph(), r.in.base))
	interval := serveInterval
	n := int(r.seconds / interval)
	if r.trace {
		n /= 2
	}
	warm, sched, err := bodies(r, n)
	if err != nil {
		return err
	}
	check := newAnswerCheck(r)

	if !r.trace {
		var s *stack
		for i := 0; i < setupReps; i++ {
			if s != nil {
				s.stop()
			}
			t0 := time.Now()
			if s, err = setUpServe(check, graphFactory, warm); err != nil {
				return err
			}
			r.setups = append(r.setups, time.Since(t0))
		}
		defer s.stop()
		var ls loadStats
		r.m, ls = s.openLoop(check, sched, interval)
		checkLate(r, ls)
		return nil
	}

	// Traced run: the schedule's first half untraced, then the same
	// requests on a fresh pool whose replicas are probed.
	s, err := setUpServe(check, graphFactory, warm)
	if err != nil {
		return err
	}
	untraced, uls := s.openLoop(check, sched, interval)
	s.stop()
	checkLate(r, uls)

	var (
		mu     sync.Mutex
		probes []*probedModel
	)
	traced := func() (detect.Model, *detect.Head, error) {
		g := buildGraph()
		p := newProbedModel(g, g)
		mu.Lock()
		probes = append(probes, p)
		mu.Unlock()
		return p, detect.NewHead(nil), nil
	}
	s, err = setUpServe(check, traced, warm)
	if err != nil {
		return err
	}
	mu.Lock()
	for _, p := range probes {
		p.reset()
	}
	mu.Unlock()
	before, err := s.metrics()
	if err != nil {
		s.stop()
		return fmt.Errorf("reading /metrics: %w", err)
	}
	m, ls := s.openLoop(check, sched, interval)
	after, err := s.metrics()
	s.stop()
	if err != nil {
		return fmt.Errorf("reading /metrics: %w", err)
	}
	checkLate(r, ls)

	r.m = m
	r.m.attempted += untraced.attempted
	r.m.failed += untraced.failed
	_, tracedGood := m.rates(r.w.limit)
	_, untracedGood := untraced.rates(r.w.limit)
	r.layers["trace.overhead_ratio"] = ratio(tracedGood, untracedGood)
	r.layers["loadgen.late_p95_ms"] = ms(quantile(ls.late, 0.95))
	t := sumProbes(probes)
	setServeLayers(r, before, after, m, ls, t)

	cost := costOf(buildGraph(), r.in.base[0])
	setGEMM(r, cost.pw)
	x, _ := detect.Batch(samples(r.in.base[:1]), 0, 1)
	allocs, mb := allocsPerFrame(buildGraph(), x, 3)
	setNN(r, t, cost, allocs, mb)

	var dec []float64
	for _, q := range sched[:min(8, len(sched))] {
		t0 := time.Now()
		if _, err := detect.DecodeRequest(q.body()); err != nil {
			return fmt.Errorf("decoding a scheduled body: %w", err)
		}
		dec = append(dec, ms(time.Since(t0)))
	}
	r.layers["detect.request_decode_ms"] = medianFloat(dec)
	return nil
}

// checkLate marks the run invalid when the open-loop generator fell
// behind its schedule.
func checkLate(r *runner, ls loadStats) {
	if p := quantile(ls.late, 0.95); p > maxLateP95 {
		r.invalidate("load generator p95 lateness %v above %v", p, maxLateP95)
	}
}

// setServeLayers fills serve.*, pipeline.* and the detect stage times from
// the pool's /metrics before and after the traced phase.
func setServeLayers(r *runner, before, after serve.PoolMetrics, m measurement, ls loadStats, t probeTotals) {
	served := float64(max(after.Served-before.Served, 1))
	// The pool's histogram is cumulative, so its quantiles include the
	// warm-up requests; its mean is exact and is taken over the phase alone.
	r.layers["serve.server_p50_ms"] = after.Latency.P50MS
	r.layers["serve.server_p95_ms"] = after.Latency.P95MS
	serverMean := phaseMean(before.Latency, after.Latency, before.Served+before.CacheServed, after.Served+after.CacheServed)
	// Means, not medians: the histogram's quantiles are bucket upper bounds.
	var clientMean time.Duration
	for _, d := range ls.fromSend {
		clientMean += d
	}
	clientMean /= time.Duration(max(len(ls.fromSend), 1))
	r.layers["serve.http_overhead_ms"] = ms(clientMean) - serverMean
	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	r.layers["serve.cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	r.layers["serve.shed_ratio"] = ratio(float64(m.shed), float64(m.attempted))
	r.layers["serve.failed"] = float64(after.Failed - before.Failed)

	var stages []pipeline.StageStats
	var wait, batchItems, batches float64
	for i, rm := range after.ReplicaMetrics {
		if i >= len(before.ReplicaMetrics) {
			break
		}
		d := stageDelta(stagesOf(before.ReplicaMetrics[i]), stagesOf(rm))
		stages = append(stages, d...)
		// A request's time in the replica that no stage spent working on
		// it: admission queue, batch forming and inter-stage queues.
		b := before.ReplicaMetrics[i]
		n := float64(rm.Served - b.Served)
		if n == 0 {
			continue
		}
		busy := 0.0
		for _, st := range d {
			switch {
			case st.Name == pipeline.StageInfer && st.Batches > 0:
				busy += ms(st.Busy) / float64(st.Batches)
				batchItems += float64(st.Items)
				batches += float64(st.Batches)
			case st.Items > 0:
				busy += ms(st.Busy) / float64(st.Items)
			}
		}
		mean := phaseMean(b.Latency, rm.Latency, b.Served+b.Failed, rm.Served+rm.Failed)
		wait += n * max(mean-busy, 0)
	}
	r.layers["serve.replica_wait_ms"] = wait / served
	r.layers["serve.replica_batch_mean"] = batchItems / max(batches, 1)
	setPipeline(r, stages)
	setDetectStages(r, stages, t)
}

// phaseMean is the mean latency of the observations a cumulative
// histogram took between two snapshots holding n0 and n1 of them.
func phaseMean(before, after serve.LatencySummary, n0, n1 int64) float64 {
	return ratio(after.MeanMS*float64(n1)-before.MeanMS*float64(n0), float64(n1-n0))
}

// stagesOf converts a replica's /metrics stage records back into
// pipeline.StageStats.
func stagesOf(m serve.Metrics) []pipeline.StageStats {
	out := make([]pipeline.StageStats, len(m.Stages))
	for i, s := range m.Stages {
		out[i] = pipeline.StageStats{
			Name: s.Name, Workers: s.Workers, Items: s.Items, Batches: s.Batches,
			Busy:    time.Duration(s.BusyMS * 1e6),
			Wait:    time.Duration(s.WaitMS * 1e6),
			Blocked: time.Duration(s.BlockedMS * 1e6),
		}
	}
	return out
}
