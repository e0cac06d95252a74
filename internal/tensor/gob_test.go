package tensor

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"testing"
)

func TestGobDecodeRejectsMalformed(t *testing.T) {
	for name, wire := range map[string]gobTensor{
		"short data":   {Shape: []int{2, 3}, Data: make([]float32, 5)},
		"long data":    {Shape: []int{2, 3}, Data: make([]float32, 7)},
		"empty shape":  {Data: []float32{1}},
		"zero dim":     {Shape: []int{2, 0}},
		"negative dim": {Shape: []int{-2, -3}, Data: make([]float32, 6)},
		"overflow":     {Shape: []int{math.MaxInt / 2, 3}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
			t.Fatal(err)
		}
		got := New(1)
		if err := got.GobDecode(buf.Bytes()); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: GobDecode returned %v, want ErrMalformed", name, err)
		}
		if got.Rank() != 1 || len(got.Data) != 1 {
			t.Fatalf("%s: refused decode modified the tensor to shape %v", name, got.Shape())
		}
	}
}

func TestGobRoundTrip(t *testing.T) {
	src := New(2, 3)
	src.Data[4] = 1.5
	b, err := src.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var dst Tensor
	if err := dst.GobDecode(b); err != nil {
		t.Fatal(err)
	}
	if !dst.SameShape(src) || dst.Data[4] != 1.5 {
		t.Fatalf("round trip gave shape %v data %v", dst.Shape(), dst.Data)
	}
}
