package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"skynet/internal/tensor"
)

// Stateful is implemented by layers that carry non-learnable state that
// must survive serialization (e.g. BatchNorm running statistics).
type Stateful interface {
	StateTensors() []*tensor.Tensor
}

// StateTensors returns BatchNorm's running mean and variance.
func (b *BatchNorm) StateTensors() []*tensor.Tensor {
	return []*tensor.Tensor{b.RunMean, b.RunVar}
}

// snapshot is the on-disk form of a graph's weights: a state-dict in node
// order. The architecture itself is rebuilt from code by the deterministic
// builder that created the graph, so only tensors are stored.
type snapshot struct {
	Format  int
	Tensors []*tensor.Tensor
}

const snapshotFormat = 1

func (g *Graph) stateTensors() []*tensor.Tensor {
	var ts []*tensor.Tensor
	for _, n := range g.Nodes {
		for _, p := range n.Layer.Params() {
			ts = append(ts, p.W)
		}
		if s, ok := n.Layer.(Stateful); ok {
			ts = append(ts, s.StateTensors()...)
		}
	}
	return ts
}

// Save writes the graph's parameters and stateful buffers to w in gob
// format. Load restores them into a graph with the identical architecture.
func (g *Graph) Save(w io.Writer) error {
	snap := snapshot{Format: snapshotFormat, Tensors: g.stateTensors()}
	return gob.NewEncoder(w).Encode(snap)
}

// LoadError reports a snapshot that Load refused. A refused snapshot
// leaves the graph's weights untouched: every tensor is validated before
// any is copied, so a bad checkpoint (a hot-swap target, say) can never
// half-overwrite a serving model.
type LoadError struct {
	// Tensor is the index of the offending snapshot tensor, or -1 when the
	// snapshot as a whole is at fault (undecodable, wrong format or tensor
	// count).
	Tensor int
	Err    error
}

// Error names the refused tensor (when one is at fault) and the reason.
func (e *LoadError) Error() string {
	if e.Tensor < 0 {
		return "nn: loading snapshot: " + e.Err.Error()
	}
	return fmt.Sprintf("nn: snapshot tensor %d: %v", e.Tensor, e.Err)
}

// Unwrap exposes the cause, e.g. tensor.ErrMalformed for a tensor whose
// encoded data does not fill its shape.
func (e *LoadError) Unwrap() error { return e.Err }

// Load restores parameters previously written by Save into g. The graph
// must have been built with the same architecture (same layer sequence and
// shapes). Every snapshot tensor must match its graph tensor's shape and
// length and hold only finite values; otherwise Load returns a *LoadError
// and g is unchanged.
func (g *Graph) Load(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return &LoadError{Tensor: -1, Err: fmt.Errorf("decoding: %w", err)}
	}
	if snap.Format != snapshotFormat {
		return &LoadError{Tensor: -1, Err: fmt.Errorf("unsupported snapshot format %d", snap.Format)}
	}
	dst := g.stateTensors()
	if len(dst) != len(snap.Tensors) {
		return &LoadError{Tensor: -1, Err: fmt.Errorf("snapshot has %d tensors, graph expects %d", len(snap.Tensors), len(dst))}
	}
	for i, t := range snap.Tensors {
		if err := checkSnapshotTensor(t, dst[i]); err != nil {
			return &LoadError{Tensor: i, Err: err}
		}
	}
	for i, t := range snap.Tensors {
		copy(dst[i].Data, t.Data)
	}
	return nil
}

// checkSnapshotTensor reports why src cannot replace dst's values.
func checkSnapshotTensor(src, dst *tensor.Tensor) error {
	if src == nil {
		return fmt.Errorf("missing, graph expects shape %v", dst.Shape())
	}
	if !dst.SameShape(src) {
		return fmt.Errorf("shape %v, graph expects %v", src.Shape(), dst.Shape())
	}
	if len(src.Data) != len(dst.Data) {
		return fmt.Errorf("%d values, graph expects %d", len(src.Data), len(dst.Data))
	}
	for j, v := range src.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fmt.Errorf("non-finite value %v at element %d", v, j)
		}
	}
	return nil
}

// SaveFile writes the graph's weights to the named file.
func (g *Graph) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := g.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile restores the graph's weights from the named file.
func (g *Graph) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return g.Load(f)
}
