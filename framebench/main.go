// Command framebench is the repository's frame-level benchmark: SkyNet C at
// full width and the paper's 160×320 input, driven through the program's
// public entry points. Three workloads cover the float32 stream executor,
// the int8 stream executor, and the replica pool behind a loopback HTTP
// listener. NOTE.md gives each workload's reason and the metric
// definitions.
//
// Usage (from the repository root):
//
//	bash framebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"skynet/internal/backbone"
	"skynet/internal/cpufeat"
	"skynet/internal/nn"
	"skynet/internal/tensor"
)

const (
	// imgW, imgH are the paper's DAC-SDC input size.
	imgW, imgH = 320, 160
	// modelSeed fixes the untrained weights; the workload seed only drives
	// the inputs.
	modelSeed = 1
	// defaultSeed is the seed the committed golden outputs belong to.
	defaultSeed = 1
	// setupReps is how many times an untraced run sets the program up;
	// setup_s is their median and the last set-up serves the measurement.
	setupReps = 3
)

// workload is one benchmark workload: its latency limit for goodput_rps
// and the function that runs it.
type workload struct {
	name  string
	limit time.Duration
	run   func(r *runner) error
}

var workloads = []workload{
	{name: "stream-f32-b4", limit: 2500 * time.Millisecond, run: runStreamF32},
	{name: "live-int8-b1", limit: 500 * time.Millisecond, run: runLiveInt8},
	{name: "serve-http-f32", limit: 1000 * time.Millisecond, run: runServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runner carries one run's settings, inputs and accumulated outcome.
type runner struct {
	ctx     context.Context
	w       workload
	seed    int64
	seconds time.Duration
	trace   bool
	in      inputs
	check   *checker

	// Filled by the workload.
	m       measurement     // measured phase; a traced run adds the untraced half's counts
	setups  []time.Duration // untraced runs only
	layers  map[string]float64
	invalid []string // why the measurement is not valid; printed before the result
	broken  []string // why the result is not correct, besides the outputs
}

// invalidate flags the measurement itself (not the program's outputs) as
// not valid: the run's figures should be discarded.
func (r *runner) invalidate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.invalid = append(r.invalid, msg)
	fmt.Fprintln(os.Stderr, "framebench: invalid run:", msg)
}

// fail makes the result incorrect.
func (r *runner) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.broken = append(r.broken, msg)
	fmt.Fprintln(os.Stderr, "framebench: failed check:", msg)
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name        = flag.String("workload", "", "workload name: stream-f32-b4, live-int8-b1 or serve-http-f32")
		seed        = flag.Int64("seed", defaultSeed, "input seed")
		seconds     = flag.Int("seconds", 10, "length of the measured phase in seconds")
		trace       = flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run, 0 the end-to-end ones")
		writeGolden = flag.Bool("write-golden", false, "write the default seed's outputs to "+goldenPath+" instead of running a workload")
	)
	flag.Parse()
	if *writeGolden {
		if err := writeGoldenFile(); err != nil {
			fmt.Fprintln(os.Stderr, "framebench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "framebench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "framebench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	r := &runner{
		ctx:     context.Background(),
		w:       w,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		layers:  map[string]float64{},
	}
	var golden []detection
	if r.seed == defaultSeed {
		g, err := loadGolden(w.name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "framebench:", err)
			return 1
		}
		golden = g
	}
	r.in = makeInputs(r.seed)
	r.check = &checker{golden: golden}
	printEnv(r)
	if err := w.run(r); err != nil {
		fmt.Fprintln(os.Stderr, "framebench:", err)
		return 1
	}
	return printResult(r)
}

// printEnv records the run environment on its own stdout line, so results
// from different hosts or kernels are not compared by mistake.
func printEnv(r *runner) {
	env := map[string]any{
		"workload":   r.w.name,
		"seed":       r.seed,
		"seconds":    r.seconds.Seconds(),
		"trace":      r.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"kernel_f32": tensor.KernelName(),
		"kernel_i8":  tensor.Int8KernelName(),
		"avx2":       cpufeat.AVX2,
		"fma":        cpufeat.FMA,
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
	}
	b, _ := json.Marshal(map[string]any{"env": env}) // a map of plain values always marshals
	fmt.Println(string(b))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(r *runner) int {
	m := r.m
	res := result{
		Correct:   len(r.broken) == 0 && m.failed == 0 && r.check.mismatches == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "framebench: nothing was attempted")
		return 1
	}
	if r.trace {
		for _, l := range perLayer {
			res.Metrics[l.name] = metric{Value: r.layers[l.name], Unit: l.unit}
		}
	} else {
		for name, v := range endToEnd(m, r.w.limit, r.setups) {
			res.Metrics[name] = v
		}
	}
	if len(r.invalid) > 0 {
		b, _ := json.Marshal(map[string]any{"invalid": r.invalid}) // strings always marshal
		fmt.Println(string(b))
	}
	fmt.Fprintf(os.Stderr, "framebench: %s seed %d: %d attempted, %d failed (error_rate %.4f), %d output mismatches, %d latency samples\n",
		r.w.name, r.seed, m.attempted, m.failed, float64(m.failed)/float64(m.attempted), r.check.mismatches, len(m.ok))
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "framebench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// endToEnd derives the user-visible metrics from an untraced measurement.
// The rates and percentiles are taken over the whole phase. Rates over
// shorter windows would count whole inference batches: at MaxBatch 4 one
// batch more or less in a window of ~65 frames moves its rate by 6%.
func endToEnd(m measurement, limit time.Duration, setups []time.Duration) map[string]metric {
	fps, good := m.rates(limit)
	return map[string]metric{
		"setup_s":            {median(setups).Seconds(), "s"},
		"fps":                {fps, "1/s"},
		"goodput_rps":        {good, "1/s"},
		"latency_p50_ms":     {ms(quantile(m.ok, 0.50)), "ms"},
		"latency_p95_ms":     {ms(quantile(m.ok, 0.95)), "ms"},
		"alloc_mb_per_frame": {float64(m.allocBytes) / 1e6 / float64(max(m.attempted, 1)), "MB"},
		"heap_peak_mb":       {float64(m.heapPeak) / 1e6, "MB"},
	}
}

// buildGraph returns the seeded, untrained full-width SkyNet C.
func buildGraph() *nn.Graph {
	return backbone.SkyNetC(rand.New(rand.NewSource(modelSeed)), backbone.DefaultConfig())
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// quantile returns the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }
