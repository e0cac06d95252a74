package serve

// Scenario-driven load harness: the proof layer for the fleet-scale serving
// claims. A Scenario shapes offered load over time as a sequence of phases
// (each a closed-loop client count held for a duration), so one run can
// express a diurnal curve (ramp up, peak, ramp down), a burst (idle, spike,
// idle), or a steady soak. Alongside the detection clients a scenario can
// hold slow-loris connections open (clients that dribble a request body
// byte by byte — they must tie up connection handlers, never inference
// slots), run concurrent tracking sessions (mixed detect/track traffic
// through the shared pool), and fire a mid-run hook (model hot-swap under
// live load). Outcomes are classified per LoadSummary, so the success p99 —
// the SLO number — is never polluted by shed or deadline responses.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skynet/internal/detect"
	"skynet/internal/tensor"
)

// Phase is one segment of a scenario's offered-load curve: Clients
// closed-loop clients held for Duration.
type Phase struct {
	Name     string
	Duration time.Duration
	Clients  int
	// Requests, when positive, ends the phase once each client has sent
	// that many requests; a positive Duration still caps it, and a zero
	// Duration then means no time limit.
	Requests int
}

// Scenario is one shaped load run against a serving endpoint.
type Scenario struct {
	// Name labels the run in reports.
	Name string
	// URL is the server base URL, e.g. "http://127.0.0.1:8080".
	URL string
	// Phases is the offered-load curve, run in order. Required.
	Phases []Phase
	// Images is the detection payload pool. Required unless the scenario is
	// track-only (every phase has 0 clients).
	Images []*tensor.Tensor
	// Think pauses each client between requests; 0 means hammer.
	Think time.Duration
	// ShedBackoff is how long a client sleeps after a 429 before retrying;
	// 0 selects 50ms. Shed storms with no backoff measure the client's
	// loop, not the server.
	ShedBackoff time.Duration
	// SlowLoris holds this many dribbling connections open for the whole
	// run: each sends headers promising a large body, then one byte every
	// 50ms. They must consume connection handlers, not inference capacity.
	SlowLoris int
	// TrackSessions runs this many concurrent tracking-session loops
	// (start, step each frame, stop, repeat) for the whole run; requires
	// TrackFrames/TrackBoxes and /track routes on the target.
	TrackSessions int
	TrackFrames   [][]*tensor.Tensor
	TrackBoxes    []detect.Box
	// MidRun, when set, fires once in a separate goroutine at the
	// scenario's halfway point — the hook swap-under-load scenarios use to
	// POST /admin/swap. Its error is reported, not fatal.
	MidRun func(ctx context.Context) error
	// Client is the HTTP client; nil selects a client sized for
	// thousand-connection fan-in (the default transport idles at 2
	// connections per host and would thrash TIME_WAIT at scenario scale).
	Client *http.Client
}

// ScenarioReport aggregates one scenario run.
type ScenarioReport struct {
	Name    string        `json:"name"`
	Elapsed time.Duration `json:"elapsed"`
	// PeakClients is the largest phase's client count.
	PeakClients int `json:"peak_clients"`
	// Detect is the classified detection-traffic summary.
	Detect LoadSummary `json:"detect"`
	// Results is every recorded detection outcome, for checks that compare
	// response bodies per image.
	Results []LoadResult `json:"-"`
	// TrackSteps counts successful tracking steps; TrackErrors sessions
	// that hit a transport error or non-200.
	TrackSteps  int `json:"track_steps,omitempty"`
	TrackErrors int `json:"track_errors,omitempty"`
	// LorisHeld is how many slow-loris connections stayed open to the end.
	LorisHeld int `json:"loris_held,omitempty"`
	// MidRunErr carries the mid-run hook's failure, if any.
	MidRunErr string `json:"mid_run_err,omitempty"`
}

// ScenarioClient returns an HTTP client sized for scenario-scale fan-in.
func ScenarioClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        0, // unlimited
			MaxIdleConnsPerHost: 8192,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// Run executes the scenario and blocks until every phase completes or ctx
// fires.
func (sc *Scenario) Run(ctx context.Context) (ScenarioReport, error) {
	rep := ScenarioReport{Name: sc.Name}
	if len(sc.Phases) == 0 {
		return rep, fmt.Errorf("serve: scenario %q has no phases", sc.Name)
	}
	var total time.Duration
	needImages := false
	for _, ph := range sc.Phases {
		total += ph.Duration
		if ph.Clients > 0 {
			needImages = true
		}
		if ph.Clients > rep.PeakClients {
			rep.PeakClients = ph.Clients
		}
	}
	if needImages && len(sc.Images) == 0 {
		return rep, fmt.Errorf("serve: scenario %q needs at least one image", sc.Name)
	}
	hc := sc.Client
	if hc == nil {
		hc = ScenarioClient()
	}
	backoff := sc.ShedBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}

	// Pre-encode each distinct image once.
	bodies := make([][]byte, len(sc.Images))
	for i, img := range sc.Images {
		var buf bytes.Buffer
		if err := detect.EncodeRequest(&buf, img); err != nil {
			return rep, err
		}
		bodies[i] = buf.Bytes()
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	t0 := time.Now()

	// Background actors for the whole run: slow-loris connections, tracking
	// sessions, the mid-run hook.
	var bg sync.WaitGroup
	var lorisHeld atomic.Int64
	for i := 0; i < sc.SlowLoris; i++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			if holdLoris(runCtx, sc.URL) {
				lorisHeld.Add(1)
			}
		}()
	}
	var trackSteps, trackErrs atomic.Int64
	if sc.TrackSessions > 0 {
		tl := &TrackLoadGen{URL: sc.URL, Frames: sc.TrackFrames, Boxes: sc.TrackBoxes, Client: hc}
		for i := 0; i < sc.TrackSessions; i++ {
			bg.Add(1)
			go func(i int) {
				defer bg.Done()
				seq := i % len(sc.TrackFrames)
				for runCtx.Err() == nil {
					res := tl.oneSession(runCtx, hc, sc.TrackFrames[seq], sc.TrackBoxes[seq])
					bad := res.Err != nil
					for j, st := range res.Statuses {
						if j > 0 && st == http.StatusOK {
							trackSteps.Add(1)
						}
						if st != http.StatusOK {
							bad = true
						}
					}
					if bad && runCtx.Err() == nil {
						trackErrs.Add(1)
					}
				}
			}(i)
		}
	}
	var midErr atomic.Pointer[string]
	if sc.MidRun != nil {
		bg.Add(1)
		go func() {
			defer bg.Done()
			select {
			case <-runCtx.Done():
				return
			case <-time.After(total / 2):
			}
			if err := sc.MidRun(runCtx); err != nil {
				msg := err.Error()
				midErr.Store(&msg)
			}
		}()
	}

	// The offered-load curve: per phase, Clients closed-loop clients until
	// the phase deadline or their request budget.
	var results []LoadResult
	for _, ph := range sc.Phases {
		var phCtx context.Context
		var phCancel context.CancelFunc
		if ph.Requests > 0 && ph.Duration <= 0 {
			phCtx, phCancel = context.WithCancel(runCtx)
		} else {
			phCtx, phCancel = context.WithTimeout(runCtx, ph.Duration)
		}
		resc := make(chan []LoadResult, ph.Clients)
		for c := 0; c < ph.Clients; c++ {
			go func(c int) {
				resc <- sc.clientLoop(phCtx, hc, bodies, c, ph.Requests, backoff)
			}(c)
		}
		if ph.Clients == 0 && ph.Requests <= 0 {
			// A quiet phase (burst troughs) still has to pass wall time.
			<-phCtx.Done()
		}
		for c := 0; c < ph.Clients; c++ {
			results = append(results, <-resc...)
		}
		phCancel()
		if runCtx.Err() != nil {
			break
		}
	}
	cancel()
	bg.Wait()

	rep.Elapsed = time.Since(t0)
	rep.Detect = summarize(results)
	rep.Results = results
	rep.TrackSteps = int(trackSteps.Load())
	rep.TrackErrors = int(trackErrs.Load())
	rep.LorisHeld = int(lorisHeld.Load())
	if msg := midErr.Load(); msg != nil {
		rep.MidRunErr = *msg
	}
	return rep, ctx.Err()
}

// clientLoop is one closed-loop client: request, classify, back off on
// shed, repeat until the phase ends or, when requests is positive, that
// many requests have been sent. In-flight requests at the deadline are
// abandoned to the HTTP layer and not recorded (a half-measured latency
// would pollute exactly the tail the harness exists to measure).
func (sc *Scenario) clientLoop(ctx context.Context, hc *http.Client, bodies [][]byte, client, requests int, backoff time.Duration) []LoadResult {
	var out []LoadResult
	for i := 0; ctx.Err() == nil && (requests <= 0 || i < requests); i++ {
		imgIdx := (client*31 + i) % len(bodies)
		res := detectOnce(ctx, hc, sc.URL, client, imgIdx, bodies[imgIdx])
		if ctx.Err() != nil && res.Err != nil {
			break // cut off by the phase deadline, not a real outcome
		}
		out = append(out, res)
		pause := sc.Think
		if res.Err == nil && res.Status == http.StatusTooManyRequests {
			// Deterministic per-client jitter spreads the retry herd.
			pause = backoff + time.Duration(client%16)*time.Millisecond
		}
		if pause > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(pause):
			}
		}
	}
	return out
}

// holdLoris opens one connection, sends headers promising a large body,
// then dribbles one byte every 50ms until ctx fires. It reports whether the
// server kept the connection open the whole time (true = the slow client
// was isolated rather than crashing anything; the server is also free to
// hang up on it, which is an acceptable defense — the scenario's SLO
// assertion on the normal traffic is the real check).
func holdLoris(ctx context.Context, baseURL string) bool {
	addr := strings.TrimPrefix(strings.TrimPrefix(baseURL, "http://"), "https://")
	d := net.Dialer{}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return false
	}
	defer conn.Close()
	head := "POST /detect HTTP/1.1\r\nHost: " + addr +
		"\r\nContent-Type: application/json\r\nContent-Length: 1048576\r\n\r\n" +
		`{"shape":[3,16,32],"data":[`
	if _, err := conn.Write([]byte(head)); err != nil {
		return false
	}
	// Dribble digits of a syntactically valid, never-complete array: the
	// decoder can neither finish nor reject, so the connection handler is
	// pinned for as long as the server tolerates the client.
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return true
		case <-t.C:
			if _, err := conn.Write([]byte("0,")); err != nil {
				return false
			}
		}
	}
}
