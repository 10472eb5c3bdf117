package nn

import (
	"math"

	"fillvoid/internal/parallel"
)

// This file is the row-at-a-time reference trainer the fused kernels in
// train.go are checked against bit for bit: one sample at a time
// through forward and backward, a pre-activation cache for the ReLU
// mask, zero-gradient rows skipped, the same shard split and the same
// fixed-order reduction.

// forward computes the layer output for a batch shard, storing both the
// pre-activation (for backward) and the activation into the caches.
// x is (n × in); z and a are (n × out).
func (l *dense) forward(x, z, a *Matrix) {
	n := x.Rows
	for r := 0; r < n; r++ {
		xr := x.Row(r)
		zr := z.Row(r)
		ar := a.Row(r)
		for o := 0; o < l.out; o++ {
			w := l.w[o*l.in : (o+1)*l.in]
			s := l.b[o]
			for i, wi := range w {
				s += wi * xr[i]
			}
			zr[o] = s
			if l.relu && s < 0 {
				ar[o] = 0
			} else {
				ar[o] = s
			}
		}
	}
}

// backward consumes dA (gradient wrt this layer's activation), converts
// it through the ReLU to dZ in place, accumulates weight/bias gradients
// into gw/gb, and writes the gradient wrt the input into dX (when
// non-nil; the first layer skips it).
func (l *dense) backward(x, z, dA *Matrix, gw, gb []float64, dX *Matrix) {
	n := x.Rows
	for r := 0; r < n; r++ {
		xr := x.Row(r)
		zr := z.Row(r)
		dr := dA.Row(r)
		if l.relu {
			for o := 0; o < l.out; o++ {
				if zr[o] <= 0 {
					dr[o] = 0
				}
			}
		}
		for o := 0; o < l.out; o++ {
			d := dr[o]
			if d == 0 {
				continue
			}
			gb[o] += d
			gwRow := gw[o*l.in : (o+1)*l.in]
			for i, xi := range xr {
				gwRow[i] += d * xi
			}
		}
		if dX != nil {
			dxr := dX.Row(r)
			for i := range dxr {
				dxr[i] = 0
			}
			for o := 0; o < l.out; o++ {
				d := dr[o]
				if d == 0 {
					continue
				}
				w := l.w[o*l.in : (o+1)*l.in]
				for i, wi := range w {
					dxr[i] += d * wi
				}
			}
		}
	}
}

// refScratch is one worker's reference caches and gradient buffers.
type refScratch struct {
	zs, as, dA []*Matrix
	gw, gb     [][]float64
}

func newRefScratch(n *Network, rows int) *refScratch {
	s := &refScratch{}
	for _, l := range n.layers {
		s.zs = append(s.zs, NewMatrix(rows, l.out))
		s.as = append(s.as, NewMatrix(rows, l.out))
		s.dA = append(s.dA, NewMatrix(rows, l.out))
		s.gw = append(s.gw, make([]float64, len(l.w)))
		s.gb = append(s.gb, make([]float64, len(l.b)))
	}
	return s
}

// refForward runs the reference forward pass over x, filling s's caches
// (which must hold x.Rows rows), and returns the output activations.
func refForward(n *Network, x *Matrix, s *refScratch) *Matrix {
	cur := x
	for li, l := range n.layers {
		z, a := s.zs[li].SliceRows(0, x.Rows), s.as[li].SliceRows(0, x.Rows)
		l.forward(cur, z, a)
		cur = a
	}
	return cur
}

// refPredict is the reference inference path.
func refPredict(n *Network, x *Matrix) *Matrix {
	return refForward(n, x, newRefScratch(n, x.Rows)).Clone()
}

// refShardGradient is the reference forward + backward over one shard.
func refShardGradient(n *Network, sx, sy *Matrix, s *refScratch, batchTotal int) float64 {
	rows := sx.Rows
	nl := len(n.layers)
	for li := range n.layers {
		clear(s.gw[li])
		clear(s.gb[li])
	}
	pred := refForward(n, sx, s)
	scale := 2 / float64(batchTotal*sy.Cols)
	sse := 0.0
	dLast := s.dA[nl-1].SliceRows(0, rows)
	for i := range pred.Data {
		d := pred.Data[i] - sy.Data[i]
		sse += d * d
		dLast.Data[i] = d * scale
	}
	for li := nl - 1; li >= 0; li-- {
		in := sx
		var dX *Matrix
		if li > 0 {
			in = s.as[li-1].SliceRows(0, rows)
			dX = s.dA[li-1].SliceRows(0, rows)
		}
		n.layers[li].backward(in, s.zs[li].SliceRows(0, rows), s.dA[li].SliceRows(0, rows), s.gw[li], s.gb[li], dX)
	}
	return sse
}

// refTrainEpochs trains n for the given epochs with the reference
// kernels and returns the per-epoch losses (also appended to n.Losses).
func refTrainEpochs(n *Network, x, y *Matrix, epochs int) []float64 {
	workers := n.cfg.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	batch := min(n.cfg.BatchSize, x.Rows)
	scratch := make([]*refScratch, workers)
	for w := range scratch {
		scratch[w] = newRefScratch(n, (batch+workers-1)/workers)
	}
	perm := make([]int, x.Rows)
	bx, by := NewMatrix(batch, x.Cols), NewMatrix(batch, y.Cols)
	var out []float64
	for e := 0; e < epochs; e++ {
		adamCfg := n.cfg.Adam
		adamCfg.LearningRate = n.LearningRateAt(len(n.Losses))
		for i := range perm {
			perm[i] = i
		}
		n.shuffle.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		total := 0.0
		for start := 0; start < x.Rows; start += batch {
			bn := min(batch, x.Rows-start)
			for i := 0; i < bn; i++ {
				copy(bx.Row(i), x.Row(perm[start+i]))
				copy(by.Row(i), y.Row(perm[start+i]))
			}
			total += refTrainBatch(n, bx.SliceRows(0, bn), by.SliceRows(0, bn), scratch, workers, adamCfg) * float64(bn)
		}
		out = append(out, total/float64(x.Rows))
		n.Losses = append(n.Losses, total/float64(x.Rows))
	}
	return out
}

// refTrainBatch shards a minibatch exactly as parallel.ForChunked does,
// computes the shard gradients one after another, reduces the non-empty
// shards in worker order and applies one Adam step per unfrozen layer.
func refTrainBatch(n *Network, bx, by *Matrix, scratch []*refScratch, workers int, adamCfg AdamConfig) float64 {
	bn := bx.Rows
	workers = min(workers, bn)
	chunk := (bn + workers - 1) / workers
	var losses []float64
	for lo := 0; lo < bn; lo += chunk {
		hi := min(lo+chunk, bn)
		losses = append(losses, refShardGradient(n, bx.SliceRows(lo, hi), by.SliceRows(lo, hi), scratch[lo/chunk], bn))
	}
	for li, l := range n.layers {
		gw, gb := make([]float64, len(l.w)), make([]float64, len(l.b))
		for w := range losses {
			for i, v := range scratch[w].gw[li] {
				gw[i] += v
			}
			for i, v := range scratch[w].gb[li] {
				gb[i] += v
			}
		}
		if !l.frozen {
			n.opts[li].w.step(l.w, gw, adamCfg)
			n.opts[li].b.step(l.b, gb, adamCfg)
		}
	}
	total := 0.0
	for _, v := range losses {
		total += v
	}
	return total / float64(bn*by.Cols)
}

// refTrainWithValidation is the reference early-stopping loop: one
// reference epoch, reference validation inference, best-weight restore.
func refTrainWithValidation(n *Network, x, y, vx, vy *Matrix, epochs, patience int) (trainLosses, valLosses []float64) {
	best := math.Inf(1)
	bad := 0
	var bestW, bestB [][]float64
	for e := 0; e < epochs; e++ {
		tl := refTrainEpochs(n, x, y, 1)
		vl, err := Loss(refPredict(n, vx), vy)
		if err != nil {
			panic(err)
		}
		trainLosses = append(trainLosses, tl[0])
		valLosses = append(valLosses, vl)
		if vl < best {
			best, bad = vl, 0
			bestW, bestB = nil, nil
			for _, l := range n.layers {
				bestW = append(bestW, append([]float64(nil), l.w...))
				bestB = append(bestB, append([]float64(nil), l.b...))
			}
		} else if bad++; bad >= patience {
			break
		}
	}
	for i, l := range n.layers {
		copy(l.w, bestW[i])
		copy(l.b, bestB[i])
	}
	return trainLosses, valLosses
}
