// Command skynet-serve exposes a trained SkyNet detector as an HTTP
// service: POST /detect takes a JSON image tensor and answers with the
// decoded bounding box, /metrics exports the pool's counters (served,
// cached, rejected, latency quantiles, and per replica the queue depth,
// per-stage occupancy and mean batch size),
// /healthz is the load-balancer probe, and /debug/pprof/* the standard
// profiles. Requests from concurrent clients are dynamically micro-batched
// through the streaming executor, so one weight load serves many users.
// SIGTERM or Ctrl-C drains gracefully: in-flight requests finish, new ones
// are refused with 503.
//
// With -quantize the loaded model is lowered to the real int8 engine
// (per-channel weights, per-tensor activations calibrated on -calib freshly
// generated scenes) before serving, cutting activation traffic 4x per request.
//
// Usage:
//
//	skynet-train -variant C -width 0.25 -ckpt skynet.ckpt
//	skynet-serve -ckpt skynet.ckpt -addr :8080
//	skynet-serve -ckpt skynet.ckpt -addr :8080 -quantize -calib 64
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/modelspec"
	"skynet/internal/nn"
	"skynet/internal/quant"
	"skynet/internal/serve"
	"skynet/internal/tensor"
	"skynet/internal/track"
)

func main() {
	var (
		ckpt    = flag.String("ckpt", "", "self-describing checkpoint written by skynet-train -ckpt")
		weights = flag.String("weights", "", "bare weights file (requires matching -variant/-width flags)")
		variant = flag.String("variant", "C", "SkyNet variant the weights were trained with")
		relu6   = flag.Bool("relu6", true, "activation the weights were trained with")
		width   = flag.Float64("width", 0.25, "width multiplier the weights were trained with")

		addr     = flag.String("addr", ":8080", "HTTP listen address")
		batch    = flag.Int("batch", 8, "inference micro-batch cap")
		delayMS  = flag.Int("maxdelay", 2, "max milliseconds a partial inference batch waits")
		queue    = flag.Int("queue", 64, "per-replica admission queue depth (overflow sheds with 429)")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-request deadline when the client sets none")
		drain    = flag.Duration("drain", 10*time.Second, "graceful drain budget on SIGTERM")
		replicas = flag.Int("replicas", 0, "model replicas behind the content-hash router (0 = NumCPU capped at 8)")
		cacheN   = flag.Int("cache", 4096, "response cache entries keyed on frame hash (negative disables)")

		withTrack  = flag.Bool("track", false, "co-host the tracking service (/track/*) beside detection")
		trackSteps = flag.Int("track-steps", 300, "tracker training steps for -track")
		trackSess  = flag.Int("track-sessions", 1024, "session table bound for -track")
		trackTTL   = flag.Duration("track-ttl", 5*time.Minute, "idle session TTL for -track")
		trackXCorr = flag.String("track-xcorr", "gemm", "tracking cross-correlation backend: gemm, naive, int8")

		quantize = flag.Bool("quantize", false, "serve the int8 lowering of the model (post-training quantization)")
		calibN   = flag.Int("calib", 32, "calibration scenes drawn for -quantize")
		calibPct = flag.Float64("calib-pct", 0, "percentile activation calibration for -quantize (0 = min-max, e.g. 99.9)")
		imgW     = flag.Int("imgw", 96, "calibration scene width for -quantize")
		imgH     = flag.Int("imgh", 48, "calibration scene height for -quantize")
	)
	flag.Parse()

	// factoryFor builds one private replica per call: each replica owns its
	// model instance and reuse buffers, which is what lets N inference
	// workers run concurrently, and what a hot-swap rebuilds per generation.
	factoryFor := func(ckptPath string, doQuant bool, calib int) serve.ModelFactory {
		return func() (detect.Model, *detect.Head, error) {
			g, head, err := loadModel(ckptPath, *weights, *variant, *width, *relu6)
			if err != nil {
				return nil, nil, err
			}
			if !doQuant {
				return g, head, nil
			}
			qm, err := quantizeModel(g, *imgW, *imgH, calib, *calibPct)
			if err != nil {
				return nil, nil, err
			}
			return qm, head, nil
		}
	}
	if _, _, err := loadModel(*ckpt, *weights, *variant, *width, *relu6); err != nil {
		fmt.Fprintf(os.Stderr, "skynet-serve: %v\n", err)
		os.Exit(1)
	}
	if *quantize {
		fmt.Printf("skynet-serve: serving the int8 lowering (calib %d scenes)\n", *calibN)
	}

	srv, err := serve.NewPool(factoryFor(*ckpt, *quantize, *calibN), serve.PoolConfig{
		Replicas:     *replicas,
		CacheEntries: *cacheN,
		Replica: serve.Config{
			MaxBatch:       *batch,
			MaxDelay:       time.Duration(*delayMS) * time.Millisecond,
			QueueDepth:     *queue,
			RequestTimeout: *timeout,
			Channels:       3,
		},
		// POST /admin/swap: load the named checkpoint (optionally lowered
		// to int8) as the next replica generation and cut over under load.
		SwapLoader: func(req serve.SwapRequest) (serve.ModelFactory, error) {
			if req.Ckpt == "" {
				return nil, errors.New("swap request needs a ckpt")
			}
			calib := req.Calib
			if calib <= 0 {
				calib = *calibN
			}
			return factoryFor(req.Ckpt, req.Quantize, calib), nil
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "skynet-serve: %v\n", err)
		os.Exit(1)
	}

	var ts *serve.TrackService
	if *withTrack {
		ts, err = buildTrackService(*trackSteps, *trackSess, *trackTTL, *trackXCorr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skynet-serve: track: %v\n", err)
			os.Exit(1)
		}
		srv.Attach(ts)
		fmt.Printf("skynet-serve: tracking service attached (sessions<=%d, ttl %s, xcorr=%s)\n",
			*trackSess, *trackTTL, *trackXCorr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("skynet-serve: listening on %s (%d replicas, batch<=%d, delay %dms, queue %d, cache %d)\n",
		*addr, srv.Replicas(), *batch, *delayMS, *queue, *cacheN)
	if err := srv.ListenAndServe(ctx, *addr, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "skynet-serve: %v\n", err)
		os.Exit(1)
	}
	m := srv.Metrics()
	fmt.Printf("skynet-serve: drained cleanly — served %d (+%d cached), failed %d, rejected %d, swaps %d\n",
		m.Served, m.CacheServed, m.Failed, m.Rejected, m.Swaps)
	if ts != nil {
		// Pool.Drain (inside ListenAndServe) already drained the attached
		// tracking service.
		tm := ts.Metrics()
		fmt.Printf("skynet-serve: tracking drained — %d sessions started, %d frames stepped\n",
			tm.Started, tm.Steps)
	}
}

// buildTrackService trains a small seeded SkyNet tracker on synthetic
// sequences (the repo has no tracker checkpoint format yet) and wraps it
// in a tracking service.
func buildTrackService(steps, maxSessions int, ttl time.Duration, xcorr string) (*serve.TrackService, error) {
	xb, err := track.ParseXCorrBackend(xcorr)
	if err != nil {
		return nil, err
	}
	dcfg := dataset.DefaultConfig()
	dcfg.W, dcfg.H = 96, 96
	dcfg.Seed = 1
	gen := dataset.NewGenerator(dcfg)
	sc := dataset.DefaultSequenceConfig()
	seqs := gen.Sequences(4, sc)

	bcfg := backbone.Config{Width: 0.125, InC: 3, HeadChannels: 0, MaxStride: 8, ReLU6: true}
	rng := rand.New(rand.NewSource(1))
	tr := track.New(backbone.SkyNetA(rng, bcfg), bcfg.ScaledChannels(512), track.DefaultConfig())
	tr.XCorr = xb
	fmt.Printf("skynet-serve: training tracker (%d steps)...\n", steps)
	tr.Train(seqs, track.TrainConfig{Steps: steps, LR: 0.01, Seed: 1})
	return serve.NewTrackService(tr, serve.TrackConfig{MaxSessions: maxSessions, TTL: ttl})
}

// quantizeModel lowers g to a real int8 model, calibrating activations on
// freshly generated scenes at the expected request resolution.
func quantizeModel(g *nn.Graph, imgW, imgH, calibN int, pct float64) (*quant.QuantizedModel, error) {
	dcfg := dataset.DefaultConfig()
	dcfg.W, dcfg.H = imgW, imgH
	gen := dataset.NewGenerator(dcfg)
	const bs = 8
	var batches []*tensor.Tensor
	for lo := 0; lo < calibN; lo += bs {
		b := bs
		if lo+b > calibN {
			b = calibN - lo
		}
		x := tensor.New(b, 3, dcfg.H, dcfg.W)
		per := 3 * dcfg.H * dcfg.W
		for i := 0; i < b; i++ {
			copy(x.Data[i*per:(i+1)*per], gen.Scene().Image.Data)
		}
		batches = append(batches, x)
	}
	cfg := quant.ExportConfig{}
	if pct > 0 {
		cfg.Calib = quant.CalibConfig{Method: quant.CalibPercentile, Percentile: pct}
	}
	return quant.Export(g, batches, cfg)
}

// loadModel mirrors skynet-detect's checkpoint/weights loading.
func loadModel(ckpt, weights, variant string, width float64, relu6 bool) (*nn.Graph, *detect.Head, error) {
	switch {
	case ckpt != "":
		_, g, head, err := modelspec.LoadCheckpoint(ckpt)
		return g, head, err
	case weights != "":
		var v backbone.SkyNetVariant
		switch variant {
		case "A", "a":
			v = backbone.VariantA
		case "B", "b":
			v = backbone.VariantB
		default:
			v = backbone.VariantC
		}
		rng := rand.New(rand.NewSource(1))
		cfg := backbone.Config{Width: width, InC: 3, HeadChannels: 10, ReLU6: relu6}
		g := backbone.SkyNet(rng, cfg, v)
		if err := g.LoadFile(weights); err != nil {
			return nil, nil, fmt.Errorf("loading %s: %w", weights, err)
		}
		return g, detect.NewHead(nil), nil
	default:
		return nil, nil, errors.New("-ckpt or -weights is required")
	}
}
