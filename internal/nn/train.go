package nn

import (
	"errors"
	"fmt"

	"fillvoid/internal/parallel"
)

// This file is the fused minibatch trainer. Forward passes reuse the
// blocked inference kernel (denseForwardBlocked) and backward passes
// are register-blocked over four rows, yet trained weights are
// bit-identical to a row-at-a-time trainer:
//
//   - The ReLU mask reads the stored activation (a <= 0) instead of a
//     cached pre-activation. a = (z < 0 ? 0 : z) gives a <= 0 exactly
//     when z <= 0, for every float including -0 and NaN, so no
//     pre-activation cache is kept.
//   - Every gradient accumulator receives the same additions in the
//     same order as the row-at-a-time loop: gw[o][i] and gb[o] add the
//     rows' terms in ascending row order, and dX[r][i] adds the outputs'
//     terms in ascending output order (the dX product is the forward
//     kernel run over the transposed weights with a zero bias).
//   - The row-at-a-time loop skips each row whose dZ is zero; the
//     blocked loops skip only a unit dead in all four rows and add the
//     other zero terms. Adding ±0 to an accumulator that starts at +0
//     never changes it (IEEE sums of +0 and -0 are +0), so the skip is
//     only a shortcut. It stops being one when a layer input is ±Inf or
//     NaN, where 0·Inf = NaN; such inputs poison the loss regardless.

// trainer is the reusable state of one training run, built once per
// TrainEpochs / TrainWithValidation call: per-worker scratch, the
// reduced gradient, the epoch permutation and the gathered minibatch.
type trainer struct {
	workers int
	scratch []*trainScratch
	// losses[w] is shard w's summed squared error for the current
	// minibatch.
	losses []float64
	gw, gb [][]float64
	perm   []int
	bx, by *Matrix
}

// newTrainer validates a training set and sizes a trainer for it.
func (n *Network) newTrainer(x, y *Matrix) (*trainer, error) {
	if x.Rows != y.Rows {
		return nil, errors.New("nn: x/y row mismatch")
	}
	if x.Cols != n.cfg.In || y.Cols != n.cfg.Out {
		return nil, fmt.Errorf("nn: train shapes (%d,%d), want (%d,%d)", x.Cols, y.Cols, n.cfg.In, n.cfg.Out)
	}
	if x.Rows == 0 {
		return nil, errors.New("nn: empty training set")
	}
	workers := n.cfg.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	batch := min(n.cfg.BatchSize, x.Rows)
	t := &trainer{
		workers: workers,
		scratch: make([]*trainScratch, workers),
		losses:  make([]float64, workers),
		perm:    make([]int, x.Rows),
		bx:      NewMatrix(batch, x.Cols),
		by:      NewMatrix(batch, y.Cols),
	}
	// Per-worker scratch is sized for the largest shard.
	shardCap := (batch + workers - 1) / workers
	for w := range t.scratch {
		t.scratch[w] = n.newTrainScratch(shardCap)
	}
	for _, l := range n.layers {
		t.gw = append(t.gw, make([]float64, len(l.w)))
		t.gb = append(t.gb, make([]float64, len(l.b)))
	}
	return t, nil
}

// trainEpoch runs one epoch of minibatch Adam at learning rate lr,
// appends the epoch's mean loss to n.Losses and returns it.
func (n *Network) trainEpoch(t *trainer, x, y *Matrix, lr float64) float64 {
	adamCfg := n.cfg.Adam
	adamCfg.LearningRate = lr
	// A fresh identity permutation shuffled once: the epoch's batch
	// order is a pure function of the generator state, which a
	// checkpoint restores exactly.
	perm := t.perm
	for i := range perm {
		perm[i] = i
	}
	n.shuffle.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	batch := t.bx.Rows
	totalLoss := 0.0
	for start := 0; start < x.Rows; start += batch {
		bn := min(batch, x.Rows-start)
		for i := 0; i < bn; i++ {
			copy(t.bx.Row(i), x.Row(perm[start+i]))
			copy(t.by.Row(i), y.Row(perm[start+i]))
		}
		loss := n.trainBatch(t, t.bx.SliceRows(0, bn), t.by.SliceRows(0, bn), adamCfg)
		// Weight each batch's mean loss by its row count so the epoch
		// mean is the true dataset MSE even when the final minibatch is
		// partial (rows % batch != 0).
		totalLoss += loss * float64(bn)
	}
	meanLoss := totalLoss / float64(x.Rows)
	// Losses is appended per epoch (not once per call) so a checkpoint
	// taken after any epoch sees the loss history the resumed run will
	// continue from.
	n.mu.Lock()
	n.Losses = append(n.Losses, meanLoss)
	n.mu.Unlock()
	return meanLoss
}

// trainScratch holds one worker's activations, backprop temporaries and
// gradient buffers, each sized for the worker's largest shard.
type trainScratch struct {
	// as[li] is layer li's activation block (rows × out); dA[li] the
	// loss gradient wrt it, turned into dZ in place by the ReLU mask.
	as, dA [][]float64
	// wT[li] is layer li's weight matrix transposed (in × out) for the
	// dX product; zero is an all-zero bias for it.
	wT   [][]float64
	zero []float64
	gw   [][]float64
	gb   [][]float64
}

func (n *Network) newTrainScratch(rows int) *trainScratch {
	s := &trainScratch{}
	maxIn := 0
	for _, l := range n.layers {
		s.as = append(s.as, make([]float64, rows*l.out))
		s.dA = append(s.dA, make([]float64, rows*l.out))
		s.wT = append(s.wT, make([]float64, len(l.w)))
		s.gw = append(s.gw, make([]float64, len(l.w)))
		s.gb = append(s.gb, make([]float64, len(l.b)))
		maxIn = max(maxIn, l.in)
	}
	s.zero = make([]float64, maxIn)
	return s
}

// trainBatch computes the batch gradient with data-parallel shards,
// reduces the per-worker gradients in fixed order, and applies one Adam
// step per unfrozen layer. It returns the batch's mean loss.
func (n *Network) trainBatch(t *trainer, bx, by *Matrix, adamCfg AdamConfig) float64 {
	bn := bx.Rows
	workers := min(t.workers, bn)
	chunk := (bn + workers - 1) / workers
	// ForChunked hands out ceil(bn/chunk) non-empty shards, which can be
	// fewer than workers (4 rows over 3 workers is two shards of 2).
	// Only those shards' scratch holds this batch's gradient; the rest
	// still holds an earlier batch's and must stay out of the sum.
	shards := (bn + chunk - 1) / chunk
	losses := t.losses[:shards]
	clear(losses)
	parallel.ForChunked(bn, workers, func(lo, hi int) {
		w := lo / chunk
		losses[w] = n.shardGradient(bx.SliceRows(lo, hi), by.SliceRows(lo, hi), t.scratch[w], bn)
	})
	// Fixed-order reduction keeps training deterministic.
	for li := range n.layers {
		gwl, gbl := t.gw[li], t.gb[li]
		clear(gwl)
		clear(gbl)
		for w := 0; w < shards; w++ {
			for i, v := range t.scratch[w].gw[li] {
				gwl[i] += v
			}
			for i, v := range t.scratch[w].gb[li] {
				gbl[i] += v
			}
		}
	}
	// The apply step mutates weights under n.mu so a concurrent Save or
	// Clone snapshots a consistent parameter set.
	n.mu.Lock()
	for li, l := range n.layers {
		if l.frozen {
			continue
		}
		n.opts[li].w.step(l.w, t.gw[li], adamCfg)
		n.opts[li].b.step(l.b, t.gb[li], adamCfg)
	}
	n.mu.Unlock()
	total := 0.0
	for _, v := range losses {
		total += v
	}
	return total / float64(bn*by.Cols)
}

// shardGradient runs forward + backward over one shard, accumulating
// gradients into the scratch buffers (zeroed here) and returning the
// shard's summed squared error.
func (n *Network) shardGradient(sx, sy *Matrix, s *trainScratch, batchTotal int) float64 {
	rows := sx.Rows
	nl := len(n.layers)
	cur := sx.Data
	for li, l := range n.layers {
		a := s.as[li][:rows*l.out]
		denseForwardBlocked(cur, rows, l.in, l.w, l.b, l.out, l.relu, a)
		cur = a
	}

	// d(MSE)/d(pred) with the MSE normalized over batch*out elements.
	scale := 2 / float64(batchTotal*sy.Cols)
	sse := 0.0
	dLast := s.dA[nl-1][:len(cur)]
	for i, p := range cur {
		d := p - sy.Data[i]
		sse += d * d
		dLast[i] = d * scale
	}

	for li := nl - 1; li >= 0; li-- {
		l := n.layers[li]
		x := sx.Data
		if li > 0 {
			x = s.as[li-1][:rows*l.in]
		}
		d := s.dA[li][:rows*l.out]
		if l.relu {
			for i, a := range s.as[li][:rows*l.out] {
				if a <= 0 {
					d[i] = 0
				}
			}
		}
		clear(s.gw[li])
		clear(s.gb[li])
		denseWeightGradBlocked(x, d, rows, l.in, l.out, s.gw[li], s.gb[li])
		if li > 0 {
			wT := s.wT[li]
			for o := 0; o < l.out; o++ {
				for i, v := range l.w[o*l.in : (o+1)*l.in] {
					wT[i*l.out+o] = v
				}
			}
			denseForwardBlocked(d, rows, l.out, wT, s.zero[:l.in], l.in, false, s.dA[li-1][:rows*l.in])
		}
	}
	return sse
}

// denseWeightGradBlocked accumulates gw[o][i] += Σ_r d[r][o]·x[r][i]
// and gb[o] += Σ_r d[r][o] over rows, four rows per pass over each
// gradient row so gw streams through cache once per four samples. The
// per-accumulator addition order is ascending r, as in a row-at-a-time
// loop. x is (rows × in), d is (rows × out), gw is out-major (o*in+i).
func denseWeightGradBlocked(x, d []float64, rows, in, out int, gw, gb []float64) {
	r := 0
	for ; r+4 <= rows; r += 4 {
		x0 := x[(r+0)*in : (r+1)*in]
		x1 := x[(r+1)*in : (r+2)*in]
		x2 := x[(r+2)*in : (r+3)*in]
		x3 := x[(r+3)*in : (r+4)*in]
		d0 := d[(r+0)*out : (r+1)*out]
		d1 := d[(r+1)*out : (r+2)*out]
		d2 := d[(r+2)*out : (r+3)*out]
		d3 := d[(r+3)*out : (r+4)*out]
		for o := 0; o < out; o++ {
			e0, e1, e2, e3 := d0[o], d1[o], d2[o], d3[o]
			if e0 == 0 && e1 == 0 && e2 == 0 && e3 == 0 {
				continue // dead unit in all four rows
			}
			g := gb[o]
			g += e0
			g += e1
			g += e2
			g += e3
			gb[o] = g
			gwo := gw[o*in : (o+1)*in]
			for i := range gwo {
				g := gwo[i]
				g += e0 * x0[i]
				g += e1 * x1[i]
				g += e2 * x2[i]
				g += e3 * x3[i]
				gwo[i] = g
			}
		}
	}
	for ; r < rows; r++ {
		xr := x[r*in : (r+1)*in]
		dr := d[r*out : (r+1)*out]
		for o, e := range dr {
			if e == 0 {
				continue
			}
			gb[o] += e
			gwo := gw[o*in : (o+1)*in]
			for i, xi := range xr {
				gwo[i] += e * xi
			}
		}
	}
}
