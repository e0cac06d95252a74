package serve

// Scenario-harness tests: the LoadSummary classifier keeps shed and
// deadline latencies out of the success percentiles (the accounting fix —
// before it, a shed storm made the "p99" look microsecond-fast and a
// deadline wave made it exactly the timeout), the exact-percentile tally
// follows the rank-⌈q·n⌉ convention, and a phased scenario run with
// slow-loris clients and a mid-run hook drives a live pool end to end.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"skynet/internal/tensor"
)

func TestLoadSummaryClassIsolation(t *testing.T) {
	var results []LoadResult
	// 200 successes at ~10ms: the only latencies the SLO may see.
	for i := 0; i < 200; i++ {
		results = append(results, LoadResult{Status: http.StatusOK,
			Latency: 10*time.Millisecond + time.Duration(i)*time.Microsecond})
	}
	// A shed storm at ~100µs: folded in, these would drag the p50 down and
	// make an overloaded server look fast.
	for i := 0; i < 400; i++ {
		results = append(results, LoadResult{Status: http.StatusTooManyRequests,
			Latency: 100 * time.Microsecond})
	}
	// A deadline wave at exactly 5s: folded in, the p99 would read as the
	// timeout instead of what a successful caller experiences.
	for i := 0; i < 50; i++ {
		results = append(results, LoadResult{Status: http.StatusGatewayTimeout,
			Latency: 5 * time.Second})
	}
	results = append(results,
		LoadResult{Status: http.StatusServiceUnavailable, Latency: time.Millisecond},
		LoadResult{Status: http.StatusBadRequest, Latency: time.Millisecond},
		LoadResult{Status: http.StatusTeapot, Latency: time.Millisecond},
		LoadResult{Err: errors.New("connection refused")},
	)
	s := summarize(results)

	if s.Offered != len(results) {
		t.Fatalf("offered %d, want %d", s.Offered, len(results))
	}
	if s.OK != 200 || s.Shed != 400 || s.Deadline != 50 ||
		s.Unavailable != 1 || s.BadInput != 1 || s.OtherHTTP != 1 || s.Transport != 1 {
		t.Fatalf("classes %+v", s)
	}
	if got := s.OK + s.Shed + s.Deadline + s.Unavailable + s.BadInput + s.OtherHTTP + s.Transport; got != s.Offered {
		t.Fatalf("classes sum to %d, offered %d", got, s.Offered)
	}
	// The success digest must sit at ~10ms, untouched by the 400 sheds below
	// it and the 50 deadlines above it.
	if s.Success.Count != 200 {
		t.Fatalf("success count %d, want 200", s.Success.Count)
	}
	if s.Success.P50MS < 9 || s.Success.P99MS > 11 {
		t.Fatalf("success p50 %.3fms p99 %.3fms polluted by other classes", s.Success.P50MS, s.Success.P99MS)
	}
	if s.ShedLatency.Count != 400 || s.ShedLatency.MaxMS > 1 {
		t.Fatalf("shed tally %+v", s.ShedLatency)
	}
	if s.DeadlineLatency.Count != 50 || s.DeadlineLatency.P50MS < 4999 {
		t.Fatalf("deadline tally %+v", s.DeadlineLatency)
	}
}

func TestTallyLatenciesExactRanks(t *testing.T) {
	// 100 distinct latencies 1ms..100ms: rank-⌈q·n⌉ pins each percentile to
	// a known element.
	lat := make([]time.Duration, 100)
	for i := range lat {
		// Reverse order: the tally must sort before ranking.
		lat[i] = time.Duration(100-i) * time.Millisecond
	}
	tl := tallyLatencies(lat)
	if tl.Count != 100 {
		t.Fatalf("count %d", tl.Count)
	}
	for _, c := range []struct {
		name string
		got  float64
		want float64
	}{
		{"p50", tl.P50MS, 50}, {"p95", tl.P95MS, 95}, {"p99", tl.P99MS, 99},
		{"max", tl.MaxMS, 100}, {"mean", tl.MeanMS, 50.5},
	} {
		if c.got < c.want-0.01 || c.got > c.want+0.01 {
			t.Errorf("%s = %.3fms, want %.3fms", c.name, c.got, c.want)
		}
	}
	if tl := tallyLatencies(nil); tl.Count != 0 || tl.P99MS != 0 {
		t.Fatalf("empty tally %+v", tl)
	}
}

// TestScenarioPhasedRun drives a live pool through a burst curve with
// slow-loris clients dribbling alongside and a mid-run hook firing at
// halfway — the same machinery the fleet-scale bench uses, at test scale.
func TestScenarioPhasedRun(t *testing.T) {
	p := newTestPool(t, verFactory(1, nil, nil), PoolConfig{Replicas: 2, CacheEntries: 64,
		Replica: Config{MaxBatch: 8, QueueDepth: 128}})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	var midRan bool
	sc := &Scenario{
		Name: "burst-with-loris",
		URL:  ts.URL,
		Phases: []Phase{
			{Name: "ramp", Duration: 150 * time.Millisecond, Clients: 2},
			{Name: "trough", Duration: 60 * time.Millisecond, Clients: 0},
			{Name: "burst", Duration: 150 * time.Millisecond, Clients: 6},
		},
		Images:    []*tensor.Tensor{testImage(0.1), testImage(0.4), testImage(0.7)},
		SlowLoris: 2,
		MidRun: func(context.Context) error {
			midRan = true
			return nil
		},
	}
	rep, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakClients != 6 {
		t.Fatalf("peak clients %d, want 6", rep.PeakClients)
	}
	if rep.Detect.OK == 0 {
		t.Fatal("scenario produced no successful detections")
	}
	if rep.Detect.Transport != 0 {
		t.Fatalf("%d transport errors against a healthy pool", rep.Detect.Transport)
	}
	if got := rep.Detect.OK + rep.Detect.Shed + rep.Detect.Deadline + rep.Detect.Unavailable +
		rep.Detect.BadInput + rep.Detect.OtherHTTP + rep.Detect.Transport; got != rep.Detect.Offered {
		t.Fatalf("classes sum to %d, offered %d", got, rep.Detect.Offered)
	}
	if !midRan {
		t.Fatal("mid-run hook never fired")
	}
	if rep.MidRunErr != "" {
		t.Fatalf("mid-run error %q", rep.MidRunErr)
	}
	// The wall clock covered every phase, including the zero-client trough.
	if rep.Elapsed < 360*time.Millisecond {
		t.Fatalf("elapsed %v, want the full phase curve (>=360ms)", rep.Elapsed)
	}
}

func TestScenarioRejectsEmptyConfig(t *testing.T) {
	if _, err := (&Scenario{Name: "none"}).Run(context.Background()); err == nil {
		t.Fatal("scenario with no phases must error")
	}
	sc := &Scenario{Name: "noimg", Phases: []Phase{{Duration: time.Millisecond, Clients: 1}}}
	if _, err := sc.Run(context.Background()); err == nil {
		t.Fatal("scenario with clients but no images must error")
	}
}
