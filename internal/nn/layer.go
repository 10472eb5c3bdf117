package nn

import "math"

// dense is one fully connected layer: y = act(x W^T + b), with weights
// stored output-major (W[o*in+i]).
type dense struct {
	in, out int
	w       []float64
	b       []float64
	relu    bool // ReLU after affine; the final layer is linear
	frozen  bool // skip the optimizer update (Case 2 fine-tuning)
}

func newDense(in, out int, relu bool) *dense {
	return &dense{in: in, out: out, w: make([]float64, in*out), b: make([]float64, out), relu: relu}
}

// initHe applies He (Kaiming) initialization, the standard scheme for
// ReLU networks: w ~ N(0, sqrt(2/fan_in)).
func (l *dense) initHe(rnd interface{ NormFloat64() float64 }) {
	std := math.Sqrt(2 / float64(l.in))
	for i := range l.w {
		l.w[i] = rnd.NormFloat64() * std
	}
	for i := range l.b {
		l.b[i] = 0
	}
}

// paramCount returns the number of trainable scalars in the layer.
func (l *dense) paramCount() int { return len(l.w) + len(l.b) }
