package nn

// Checkpoint-boundary tests: Graph.Load is the hot-swap path, so every bad
// snapshot must come back as a *LoadError with the graph's weights
// untouched — never a panic, never a half-overwritten model, never a
// silently truncated tensor. Seed corpora for FuzzGraphLoad live in
// testdata/fuzz/FuzzGraphLoad/ and run as plain subtests under `go test`;
// `go test -fuzz=FuzzGraphLoad ./internal/nn` explores from there.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"testing"

	"skynet/internal/tensor"
)

// loadTestGraph is the small fixed architecture the checkpoint tests and
// the fuzz seeds are written against: a conv with bias, then BatchNorm,
// so the snapshot carries parameters and running statistics.
func loadTestGraph(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	return Sequential(NewPWConv1(rng, 2, 3, true), NewBatchNorm(3))
}

// encodeSnapshot gob-encodes tensors exactly as Save frames them.
func encodeSnapshot(t testing.TB, format int, ts []*tensor.Tensor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snapshot{Format: format, Tensors: ts}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cloneState deep-copies a graph's weights for before/after comparison.
func cloneState(g *Graph) [][]float32 {
	var out [][]float32
	for _, t := range g.stateTensors() {
		out = append(out, append([]float32(nil), t.Data...))
	}
	return out
}

// sameBits reports whether the graph still holds exactly the values in
// want (bitwise, so a NaN leaking in is caught).
func sameBits(g *Graph, want [][]float32) bool {
	for i, t := range g.stateTensors() {
		for j, v := range t.Data {
			if math.Float32bits(v) != math.Float32bits(want[i][j]) {
				return false
			}
		}
	}
	return true
}

// badSnapshots builds the refused-snapshot table from a donor graph's
// tensors; tensor is the index the *LoadError must name (-1 for the whole
// snapshot).
func badSnapshots(t testing.TB) []struct {
	name   string
	data   []byte
	tensor int
	cause  error
} {
	t.Helper()
	donor := func() []*tensor.Tensor {
		var ts []*tensor.Tensor
		for _, x := range loadTestGraph(1).stateTensors() {
			ts = append(ts, x.Clone())
		}
		return ts
	}

	truncated := donor()
	truncated[1].Data = truncated[1].Data[:len(truncated[1].Data)-1]

	lastShape := donor()
	last := len(lastShape) - 1
	lastShape[last] = tensor.New(lastShape[last].Len() + 1)

	nan := donor()
	nan[2].Data[1] = float32(math.NaN())

	inf := donor()
	inf[0].Data[0] = float32(math.Inf(-1))

	return []struct {
		name   string
		data   []byte
		tensor int
		cause  error
	}{
		{"truncated-data", encodeSnapshot(t, snapshotFormat, truncated), -1, tensor.ErrMalformed},
		{"last-shape-mismatch", encodeSnapshot(t, snapshotFormat, lastShape), last, nil},
		{"nan", encodeSnapshot(t, snapshotFormat, nan), 2, nil},
		{"inf", encodeSnapshot(t, snapshotFormat, inf), 0, nil},
		{"wrong-format", encodeSnapshot(t, snapshotFormat+1, donor()), -1, nil},
		{"tensor-count", encodeSnapshot(t, snapshotFormat, donor()[:3]), -1, nil},
	}
}

func TestLoadRejectsBadSnapshotUntouched(t *testing.T) {
	for _, tc := range badSnapshots(t) {
		t.Run(tc.name, func(t *testing.T) {
			g := loadTestGraph(2)
			before := cloneState(g)
			err := g.Load(bytes.NewReader(tc.data))
			var le *LoadError
			if !errors.As(err, &le) {
				t.Fatalf("Load returned %v, want a *LoadError", err)
			}
			if le.Tensor != tc.tensor {
				t.Fatalf("LoadError names tensor %d, want %d (%v)", le.Tensor, tc.tensor, err)
			}
			if tc.cause != nil && !errors.Is(err, tc.cause) {
				t.Fatalf("Load error %v does not wrap %v", err, tc.cause)
			}
			// The failure is detected after earlier tensors were already
			// validated: none of them may have been copied.
			if !sameBits(g, before) {
				t.Fatal("refused snapshot modified the graph's weights")
			}
		})
	}
}

// FuzzGraphLoad feeds arbitrary bytes to Graph.Load: it must never panic,
// every refusal must be a *LoadError that leaves the weights untouched, and
// every accepted snapshot must leave only finite weights.
func FuzzGraphLoad(f *testing.F) {
	var valid bytes.Buffer
	if err := loadTestGraph(1).Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte{})
	for _, tc := range badSnapshots(f) {
		f.Add(tc.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g := loadTestGraph(2)
		before := cloneState(g)
		err := g.Load(bytes.NewReader(data))
		if err != nil {
			var le *LoadError
			if !errors.As(err, &le) {
				t.Fatalf("Load returned %T %v, want a *LoadError", err, err)
			}
			if !sameBits(g, before) {
				t.Fatalf("refused snapshot (%v) modified the graph's weights", err)
			}
			return
		}
		for i, x := range g.stateTensors() {
			for j, v := range x.Data {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("accepted snapshot left tensor %d element %d = %v", i, j, v)
				}
			}
		}
	})
}
