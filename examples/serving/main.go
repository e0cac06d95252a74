// Serving: train a compact SkyNet detector for a few epochs, stand it up
// as an in-process HTTP detection service (a one-replica serve.Pool), and
// hit it with concurrent clients through the scenario load driver —
// demonstrating dynamic micro-batching (mean batch size > 1 under
// concurrency), the bounded admission queue, and the /metrics
// observability surface, all on one CPU.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/nn"
	"skynet/internal/serve"
	"skynet/internal/tensor"
)

func main() {
	// 1. A quickly trained model — serving quality tracks training budget,
	//    and the point here is the serving layer, not accuracy.
	gen := dataset.NewGenerator(dataset.DefaultConfig())
	train := gen.DetectionSet(64)
	rng := rand.New(rand.NewSource(1))
	model := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	head := detect.NewHead(nil)
	fmt.Println("training a compact detector (8 epochs)...")
	detect.TrainDetector(model, head, train, detect.TrainConfig{
		Epochs:    8,
		BatchSize: 8,
		LR:        nn.LRSchedule{Start: 0.01, End: 0.002, Epochs: 8},
	})

	// 2. The serving pipeline: bounded admission, micro-batched inference.
	//    One replica, cache off, so every request reaches the model.
	srv, err := serve.NewPool(func() (detect.Model, *detect.Head, error) { return model, head, nil },
		serve.PoolConfig{Replicas: 1, CacheEntries: -1, Replica: serve.Config{
			MaxBatch: 8,
			MaxDelay: 4 * time.Millisecond,
		}})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n", url)

	// 3. Concurrent load: 16 clients × 4 requests over 8 distinct scenes.
	images := make([]*tensor.Tensor, 8)
	for i := range images {
		images[i] = gen.Scene().Image
	}
	sc := &serve.Scenario{URL: url, Images: images,
		Phases: []serve.Phase{{Name: "load", Clients: 16, Requests: 4}}}
	report, err := sc.Run(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("load: %d requests in %v — %d ok, %d errors\n",
		report.Detect.Offered, report.Elapsed.Round(time.Millisecond),
		report.Detect.OK, report.Detect.Offered-report.Detect.OK)

	// 4. What the service observed.
	pm := srv.Metrics()
	m := pm.ReplicaMetrics[0]
	fmt.Printf("served %d  failed %d  rejected %d\n", pm.Served, pm.Failed, pm.Rejected)
	fmt.Printf("latency: mean %.2fms  p50 %.2fms  p95 %.2fms  p99 %.2fms\n",
		pm.Latency.MeanMS, pm.Latency.P50MS, pm.Latency.P95MS, pm.Latency.P99MS)
	fmt.Printf("mean inference batch: %.2f images/forward (batching leverage: "+
		"one weight load amortized over concurrent users)\n", m.MeanBatchSize)
	for _, st := range m.Stages {
		fmt.Printf("  stage %-7s workers %d  items %-4d occupancy %.2f\n",
			st.Name, st.Workers, st.Items, st.Occupancy)
	}

	// 5. Graceful drain.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	_ = hs.Shutdown(ctx)
	fmt.Println("drained cleanly")
}
