package nn

import "fmt"

// This file is the fused batched-inference path: a register-blocked
// forward kernel plus caller-owned activation buffers, so steady-state
// inference over a stream of chunks performs zero heap allocations.
// The kernel is bit-identical to the row-at-a-time reference
// (dense.forward, kept in reference_test.go) — for every (row, output)
// pair the accumulator starts at the bias and adds w[i]*x[i] with i
// ascending in a single float64 sum, so fusing changes nothing about
// the produced values, only how fast they are produced.

// Predictor is the fused inference contract shared by the
// full-precision Network and its Quantized variants: size buffers once
// with NewInferenceBuffers, then stream batches through PredictInto.
type Predictor interface {
	Config() Config
	NewInferenceBuffers(maxRows int) *InferenceBuffers
	PredictInto(x, out *Matrix, buf *InferenceBuffers) error
}

// InferenceBuffers holds the per-layer activation storage reused across
// PredictInto calls. One buffer set serves one goroutine at a time;
// concurrent workers each own their own set. The same buffers work for
// the full-precision network and any Quantized variant of the same
// architecture.
type InferenceBuffers struct {
	maxRows int
	// acts[li] backs layer li's activation block (maxRows × width of
	// layer li). The final layer writes into the caller's out matrix
	// directly, but its slot is still allocated so buffers built from a
	// config serve any same-shaped network.
	acts [][]float64
	// wrow is the dequantized-weight-row scratch used by the quantized
	// kernels (capacity = widest layer input).
	wrow []float64
}

// MaxRows returns the batch capacity the buffers were sized for.
func (b *InferenceBuffers) MaxRows() int { return b.maxRows }

// newInferenceBuffers sizes buffers for a network with the given layer
// widths (widths[0] is the input width).
func newInferenceBuffers(widths []int, maxRows int) *InferenceBuffers {
	if maxRows < 1 {
		maxRows = 1
	}
	b := &InferenceBuffers{maxRows: maxRows}
	maxIn := 0
	for i := 1; i < len(widths); i++ {
		b.acts = append(b.acts, make([]float64, maxRows*widths[i]))
		if widths[i-1] > maxIn {
			maxIn = widths[i-1]
		}
	}
	b.wrow = make([]float64, maxIn)
	return b
}

// layerWidths returns [In, Hidden..., Out] for a config.
func (c Config) layerWidths() []int {
	return append(append([]int{c.In}, c.Hidden...), c.Out)
}

// NewInferenceBuffers allocates activation buffers for PredictInto
// batches of up to maxRows rows.
func (n *Network) NewInferenceBuffers(maxRows int) *InferenceBuffers {
	return newInferenceBuffers(n.cfg.layerWidths(), maxRows)
}

// PredictInto runs the forward pass for x (rows × In) into out (rows ×
// Out) on the calling goroutine, reusing buf for every intermediate
// activation: zero heap allocations per call. Results are bit-identical
// to Predict. The caller must not run PredictInto concurrently with
// training on the same network, and each goroutine needs its own buf.
func (n *Network) PredictInto(x, out *Matrix, buf *InferenceBuffers) error {
	if err := checkPredictInto(n.cfg, x, out, buf); err != nil {
		return err
	}
	cur := x.Data
	for li, l := range n.layers {
		dst := out.Data
		if li < len(n.layers)-1 {
			dst = buf.acts[li][:x.Rows*l.out]
		}
		denseForwardBlocked(cur, x.Rows, l.in, l.w, l.b, l.out, l.relu, dst)
		cur = dst
	}
	return nil
}

func checkPredictInto(cfg Config, x, out *Matrix, buf *InferenceBuffers) error {
	if x.Cols != cfg.In {
		return fmt.Errorf("nn: input width %d, want %d", x.Cols, cfg.In)
	}
	if out.Cols != cfg.Out || out.Rows != x.Rows {
		return fmt.Errorf("nn: output shape %dx%d, want %dx%d", out.Rows, out.Cols, x.Rows, cfg.Out)
	}
	if buf == nil || x.Rows > buf.maxRows {
		return fmt.Errorf("nn: inference buffers too small for %d rows", x.Rows)
	}
	if len(buf.acts) != len(cfg.Hidden)+1 {
		return fmt.Errorf("nn: inference buffers built for %d layers, want %d", len(buf.acts), len(cfg.Hidden)+1)
	}
	return nil
}

// denseForwardBlocked is the tiled affine+ReLU kernel: x is (rows × in)
// row-major, dst is (rows × nout) row-major. Rows are processed four at
// a time so each weight row streams from cache once per four samples
// (the layer weights are the large operand; inputs are a handful of
// floats per row). Accumulation order per (row, output) matches
// dense.forward exactly, keeping the fused path bit-identical to the
// row-at-a-time path.
func denseForwardBlocked(x []float64, rows, in int, w, b []float64, nout int, relu bool, dst []float64) {
	r := 0
	for ; r+4 <= rows; r += 4 {
		x0 := x[(r+0)*in : (r+1)*in]
		x1 := x[(r+1)*in : (r+2)*in]
		x2 := x[(r+2)*in : (r+3)*in]
		x3 := x[(r+3)*in : (r+4)*in]
		d0 := dst[(r+0)*nout : (r+1)*nout]
		d1 := dst[(r+1)*nout : (r+2)*nout]
		d2 := dst[(r+2)*nout : (r+3)*nout]
		d3 := dst[(r+3)*nout : (r+4)*nout]
		for o := 0; o < nout; o++ {
			wo := w[o*in : (o+1)*in]
			bo := b[o]
			s0, s1, s2, s3 := bo, bo, bo, bo
			for i, wi := range wo {
				s0 += wi * x0[i]
				s1 += wi * x1[i]
				s2 += wi * x2[i]
				s3 += wi * x3[i]
			}
			if relu {
				if s0 < 0 {
					s0 = 0
				}
				if s1 < 0 {
					s1 = 0
				}
				if s2 < 0 {
					s2 = 0
				}
				if s3 < 0 {
					s3 = 0
				}
			}
			d0[o], d1[o], d2[o], d3[o] = s0, s1, s2, s3
		}
	}
	for ; r < rows; r++ {
		xr := x[r*in : (r+1)*in]
		dr := dst[r*nout : (r+1)*nout]
		for o := 0; o < nout; o++ {
			wo := w[o*in : (o+1)*in]
			s := b[o]
			for i, wi := range wo {
				s += wi * xr[i]
			}
			if relu && s < 0 {
				s = 0
			}
			dr[o] = s
		}
	}
}
