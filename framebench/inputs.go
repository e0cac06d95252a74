package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/quant"
	"skynet/internal/tensor"
)

const (
	// baseFrames is the number of distinct seeded scenes a run cycles
	// through; the program's outputs on them are checked every time.
	baseFrames = 8
	// calibFrames is the int8 calibration batch (a separate seeded stream).
	calibFrames = 4
	// goldenPath holds the default seed's outputs, relative to the
	// repository root.
	goldenPath = "framebench/golden.json"
	// minIoU and confTol bound how far a decoded box and confidence may
	// drift from the reference (and, on the default seed, from the golden
	// file) before the frame counts as failed.
	minIoU  = 0.9
	confTol = 0.01
)

// inputs are a run's seeded inputs. The program receives only these.
type inputs struct {
	base  []*tensor.Tensor // [3,H,W] scenes
	calib *tensor.Tensor   // [calibFrames,3,H,W]
}

func makeInputs(seed int64) inputs {
	gen := dataset.NewGenerator(dataset.Config{W: imgW, H: imgH, Clutter: 2, NoiseStd: 0.03, Seed: seed})
	in := inputs{calib: tensor.New(calibFrames, 3, imgH, imgW)}
	for i := 0; i < baseFrames; i++ {
		in.base = append(in.base, gen.Scene().Image)
	}
	cgen := dataset.NewGenerator(dataset.Config{W: imgW, H: imgH, Clutter: 2, NoiseStd: 0.03, Seed: seed + 1_000_003})
	per := 3 * imgH * imgW
	for i := 0; i < calibFrames; i++ {
		copy(in.calib.Data[i*per:(i+1)*per], cgen.Scene().Image.Data)
	}
	return in
}

// detection is one decoded output.
type detection struct {
	Box  detect.Box
	Conf float64
}

// direct decodes every frame one at a time through m.Forward and the head,
// outside any executor: the reference the workloads are checked against.
func direct(m detect.Model, frames []*tensor.Tensor) []detection {
	h := detect.NewHead(nil)
	out := make([]detection, len(frames))
	for i, f := range frames {
		x, _ := detect.Batch([]detect.Sample{{Image: f}}, 0, 1)
		boxes, confs := h.Decode(m.Forward(x, false))
		out[i] = detection{boxes[0], confs[0]}
	}
	return out
}

// exportInt8 builds the float graph and lowers it to the int8 engine,
// calibrated on the run's calibration batch.
func exportInt8(calib *tensor.Tensor) (*quant.QuantizedModel, error) {
	qm, err := quant.Export(buildGraph(), []*tensor.Tensor{calib}, quant.ExportConfig{})
	if err != nil {
		return nil, fmt.Errorf("int8 export: %w", err)
	}
	return qm, nil
}

// checker compares outputs with the in-run reference and, on the default
// seed, with the committed golden outputs.
type checker struct {
	mu         sync.Mutex
	ref        []detection
	golden     []detection
	mismatches int
	reported   int
}

func near(got, want detection) bool {
	return got.Box.IoU(want.Box) >= minIoU && math.Abs(got.Conf-want.Conf) <= confTol
}

// matches reports whether got is within bounds of base frame i's
// expected outputs.
func (c *checker) matches(i int, got detection) bool {
	return near(got, c.ref[i]) && (c.golden == nil || near(got, c.golden[i]))
}

// ok reports whether the output for base frame i is correct, counting and
// reporting (the first few) mismatches.
func (c *checker) ok(i int, got detection) bool {
	if c.matches(i, got) {
		return true
	}
	want := fmt.Sprintf("reference %+v", c.ref[i])
	if c.golden != nil {
		want += fmt.Sprintf(", golden %+v", c.golden[i])
	}
	c.mismatch(fmt.Sprintf("frame %d: got %+v, %s", i, got, want))
	return false
}

// mismatch counts a wrong output and reports the first few.
func (c *checker) mismatch(msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mismatches++
	if c.reported < 5 {
		c.reported++
		fmt.Fprintln(os.Stderr, "framebench:", msg)
	}
}

// setReference installs the in-run reference and checks it against the
// golden outputs, so a drift shows even before the workload runs.
func (c *checker) setReference(ref []detection) {
	c.ref = ref
	if c.golden == nil {
		return
	}
	for i, got := range ref {
		if !near(got, c.golden[i]) {
			c.mismatches++
			fmt.Fprintf(os.Stderr, "framebench: golden frame %d: got %+v, golden %+v\n", i, got, c.golden[i])
		}
	}
}

// goldenFile is the benchmark's own format for the committed outputs: per
// workload, the decoded box [cx, cy, w, h] and confidence of every base
// frame of the default seed.
type goldenFile struct {
	Seed      int64                     `json:"seed"`
	Width     int                       `json:"width"`
	Height    int                       `json:"height"`
	Workloads map[string][]goldenOutput `json:"workloads"`
}

type goldenOutput struct {
	Box  [4]float64 `json:"box"`
	Conf float64    `json:"conf"`
}

func loadGolden(workload string) ([]detection, error) {
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("reading golden outputs: %w", err)
	}
	var gf goldenFile
	if err := json.Unmarshal(b, &gf); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenPath, err)
	}
	outs := gf.Workloads[workload]
	if gf.Seed != defaultSeed || gf.Width != imgW || gf.Height != imgH || len(outs) != baseFrames {
		return nil, fmt.Errorf("%s does not hold %d outputs of seed %d at %dx%d for %s", goldenPath, baseFrames, defaultSeed, imgW, imgH, workload)
	}
	dets := make([]detection, len(outs))
	for i, o := range outs {
		dets[i] = detection{detect.Box{CX: o.Box[0], CY: o.Box[1], W: o.Box[2], H: o.Box[3]}, o.Conf}
	}
	return dets, nil
}

// writeGoldenFile records the default seed's outputs for every workload.
func writeGoldenFile() error {
	in := makeInputs(defaultSeed)
	f32 := direct(buildGraph(), in.base)
	qm, err := exportInt8(in.calib)
	if err != nil {
		return err
	}
	i8 := direct(qm, in.base)
	gf := goldenFile{Seed: defaultSeed, Width: imgW, Height: imgH, Workloads: map[string][]goldenOutput{}}
	for name, dets := range map[string][]detection{"stream-f32-b4": f32, "live-int8-b1": i8, "serve-http-f32": f32} {
		outs := make([]goldenOutput, len(dets))
		for i, d := range dets {
			outs[i] = goldenOutput{[4]float64{d.Box.CX, d.Box.CY, d.Box.W, d.Box.H}, d.Conf}
		}
		gf.Workloads[name] = outs
	}
	b, err := json.MarshalIndent(gf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}

// measurement is what one measured phase observed.
type measurement struct {
	attempted  int
	failed     int             // errors, non-2xx other than 429, transport errors, wrong outputs
	shed       int             // HTTP 429
	ok         []time.Duration // latency of every correct output
	elapsed    time.Duration
	allocBytes uint64
	heapPeak   uint64
}

// rates returns the correct outputs per second over the phase, which ends
// at the last output, and those within limit per second.
func (m measurement) rates(limit time.Duration) (rate, goodRate float64) {
	good := 0
	for _, lat := range m.ok {
		if lat <= limit {
			good++
		}
	}
	sec := m.elapsed.Seconds()
	return ratio(float64(len(m.ok)), sec), ratio(float64(good), sec)
}

// ratio is a/b, or 0 when b is 0 (nothing was measured).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memWatch samples the heap while a phase runs: bytes allocated over the
// phase, and the heap in use every 5 ms.
type memWatch struct {
	alloc0 uint64
	heap   []uint64 // heap in use, one sample per tick
	stop   chan struct{}
	done   chan struct{}
}

func readMem() (alloc, inUse uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// watchMemory collects the set-up's garbage first, so the peak belongs to
// the phase.
func watchMemory() *memWatch {
	runtime.GC()
	w := &memWatch{stop: make(chan struct{}), done: make(chan struct{})}
	alloc0, h := readMem()
	w.alloc0, w.heap = alloc0, []uint64{h}
	go func() {
		defer close(w.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				_, h := readMem()
				w.heap = append(w.heap, h)
			}
		}
	}()
	return w
}

// finish stops the sampler and stores the phase's figures in m.
func (w *memWatch) finish(m *measurement) {
	close(w.stop)
	<-w.done
	alloc, h := readMem()
	m.allocBytes = alloc - w.alloc0
	m.heapPeak = peakOfThirds(append(w.heap, h))
}

// peakOfThirds is the median of the highest sample in each third of the
// phase. The highest heap of a whole phase depends on when the last GC
// cycle happened to start: on serve-http-f32 it read about 505 MB, or in 2
// to 3 runs of 10 about 566 MB, one request's allocation more. A third of
// the phase spans several GC cycles, and the median moves only when two
// thirds see the higher peak.
func peakOfThirds(heap []uint64) uint64 {
	var peaks [3]uint64
	for i, h := range heap {
		k := i * 3 / len(heap)
		peaks[k] = max(peaks[k], h)
	}
	slices.Sort(peaks[:])
	return peaks[1]
}

// allocsPerFrame runs m.Forward on x reps times after one warm call, with
// nothing else running, and returns allocations and MB per frame.
func allocsPerFrame(m detect.Model, x *tensor.Tensor, reps int) (allocs, mb float64) {
	m.Forward(x, false)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < reps; i++ {
		m.Forward(x, false)
	}
	runtime.ReadMemStats(&b)
	frames := float64(reps * x.Dim(0))
	return float64(b.Mallocs-a.Mallocs) / frames, float64(b.TotalAlloc-a.TotalAlloc) / 1e6 / frames
}
