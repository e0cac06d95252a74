package tensor

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
)

// ErrMalformed reports an encoded tensor whose shape and data disagree: an
// empty shape, a non-positive or overflowing dimension, or a data length
// other than the product of the shape. A checkpoint carrying one is
// corrupt, so decoding refuses it rather than yielding a tensor whose
// Data is a silent prefix of what its shape promises.
var ErrMalformed = errors.New("tensor: malformed encoding")

// gobTensor is the wire form of a Tensor; Tensor keeps its shape
// unexported so it encodes through this mirror struct.
type gobTensor struct {
	Shape []int
	Data  []float32
}

// GobEncode implements gob.GobEncoder.
func (t *Tensor) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(gobTensor{Shape: t.shape, Data: t.Data})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. It returns an error wrapping
// ErrMalformed, and leaves t unchanged, when the decoded shape and data
// do not describe a valid tensor.
func (t *Tensor) GobDecode(b []byte) error {
	var gt gobTensor
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&gt); err != nil {
		return err
	}
	if len(gt.Shape) == 0 {
		return fmt.Errorf("%w: empty shape", ErrMalformed)
	}
	n := 1
	for _, d := range gt.Shape {
		if d <= 0 {
			return fmt.Errorf("%w: non-positive dimension in shape %v", ErrMalformed, gt.Shape)
		}
		if n > math.MaxInt/d {
			return fmt.Errorf("%w: shape %v overflows the element count", ErrMalformed, gt.Shape)
		}
		n *= d
	}
	if len(gt.Data) != n {
		return fmt.Errorf("%w: shape %v wants %d values, got %d", ErrMalformed, gt.Shape, n, len(gt.Data))
	}
	t.shape = gt.Shape
	t.Data = gt.Data
	return nil
}
