package serve

import (
	"context"
	"math/rand"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/detect"
	"skynet/internal/quant"
	"skynet/internal/tensor"
)

// TestServeQuantizedModel runs the batching service on a real int8
// QuantizedModel — the deployment path behind `skynet-serve -quantize` —
// and checks that concurrent submissions produce the same detections the
// engine produces offline.
func TestServeQuantizedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	calib := tensor.New(2, 3, 16, 16)
	for i := range calib.Data {
		calib.Data[i] = rng.Float32()
	}
	qm, err := quant.Export(g, []*tensor.Tensor{calib}, quant.ExportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	head := detect.NewHead(nil)
	s, err := NewPool(func() (detect.Model, *detect.Head, error) { return qm, head, nil },
		PoolConfig{Replicas: 1, CacheEntries: -1, Replica: Config{MaxBatch: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	img := tensor.New(3, 16, 16)
	for i := range img.Data {
		img.Data[i] = rng.Float32()
	}
	// Offline reference through the same engine.
	x := tensor.New(1, 3, 16, 16)
	copy(x.Data, img.Data)
	wantBox, wantConf := head.Decode(qm.Forward(x, false))

	for i := 0; i < 8; i++ {
		box, conf, err := s.Submit(context.Background(), img)
		if err != nil {
			t.Fatal(err)
		}
		if box != wantBox[0] || conf != wantConf[0] {
			t.Fatalf("served detection %+v conf %v, offline engine %+v conf %v",
				box, conf, wantBox[0], wantConf[0])
		}
	}
	if m := s.Metrics(); m.Served != 8 || m.Failed != 0 {
		t.Fatalf("metrics %+v after 8 successes", m)
	}
}
