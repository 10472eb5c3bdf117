package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fillvoid/internal/codec"
	"fillvoid/internal/core"
	"fillvoid/internal/features"
	"fillvoid/internal/grid"
	"fillvoid/internal/interp"
	"fillvoid/internal/kdtree"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/metrics"
	"fillvoid/internal/nn"
	"fillvoid/internal/parallel"
	"fillvoid/internal/recon"
	"fillvoid/internal/sampling"
)

// stored is one encoded sample set on disk with what the check needs.
type stored struct {
	file     string
	t        int
	fraction float64
	idx      []int
	vals     []float64
}

// reconSetup is the post-hoc workload's prepared input: a pretrained
// model, the stored sample sets and the ground truth to score against.
type reconSetup struct {
	f       field
	model   *core.FCNN
	methods map[string]recon.Reconstructor
	sets    []stored
	truth   map[int]*grid.Volume
	roi     recon.Region
	// pretrainS is how long the set-up's pretrain took.
	pretrainS float64
}

func setupRecon(e *env, n int) (*reconSetup, error) {
	f := newField(e.seed, e.z)
	start := time.Now()
	model, err := pretrain(e.tr, nil, f.at(e.z.T0), f, e.z)
	if err != nil {
		return nil, err
	}
	s := &reconSetup{f: f, model: model, truth: map[int]*grid.Volume{}, pretrainS: time.Since(start).Seconds()}
	dir := filepath.Join(e.tmp, fmt.Sprintf("recon-%d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if s.methods, err = methodSet(model, reconMethods); err != nil {
		return nil, err
	}
	for _, t := range e.z.ReconSteps {
		truth := f.at(t)
		s.truth[t] = truth
		for i, frac := range e.z.Fractions {
			cloud, idx, err := sample(e.tr, nil, truth, f, e.seed, int64(300+10*t+i), frac)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			sp := e.tr.start(nil, "codec.encode")
			err = codec.Encode(&buf, truth, f.name(), idx, cloud.Values, codec.Options{})
			sp.set("bytes", float64(buf.Len()))
			sp.end()
			if err != nil {
				return nil, fmt.Errorf("encode: %w", err)
			}
			file := filepath.Join(dir, fmt.Sprintf("t%02d-%g.fvs", t, frac))
			if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
				return nil, err
			}
			s.sets = append(s.sets, stored{file: file, t: t, fraction: frac, idx: idx, vals: cloud.Values})
		}
	}
	// Natural neighbor runs on a fixed central ROI: half the grid in x
	// and y, every z slice.
	s.roi = recon.Box(f.nx/4, f.ny/4, 0, f.nx/4+f.nx/2, f.ny/4+f.ny/2, f.nz)
	return s, nil
}

// methodSet resolves names through the standard registry with the
// model registered as fcnn and its f16 view as fcnn-f16.
func methodSet(model *core.FCNN, names []string) (map[string]recon.Reconstructor, error) {
	reg := interp.StandardRegistry(0)
	reg.RegisterMethod(model)
	out := map[string]recon.Reconstructor{}
	for _, name := range names {
		var m recon.Reconstructor
		var err error
		if name == "fcnn-f16" {
			m, err = model.WithQuant("f16")
		} else {
			m, err = reg.Get(name)
		}
		if err != nil {
			return nil, err
		}
		out[name] = m
	}
	return out, nil
}

// runRecon is post-hoc reconstruction. Each cycle walks every stored
// set: decode, plan, index, nearest table, then fcnn, fcnn-f16, linear,
// shepard and nearest on the full grid and natural on the ROI, each
// scored against the truth.
func runRecon(ctx context.Context, e *env, seconds float64, setups int) (*outcome, error) {
	var pretrainS []float64
	n := 0
	s, setupS, err := measureSetups(setups, func() (*reconSetup, error) {
		n++
		s, err := setupRecon(e, n)
		if err == nil {
			pretrainS = append(pretrainS, s.pretrainS)
		}
		return s, err
	}, func(*reconSetup) {})
	if err != nil {
		return nil, err
	}

	var fcnnMS, fcnnSNR []float64
	var busy time.Duration
	recons := 0
	mem := newMemMeter()
	var runErr error
	var last setResult
	stop := make(chan struct{})
	parallel.Fork(func() {
		defer close(stop)
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		mem.begin()
		for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
			root := e.tr.start(nil, "recon.cycle")
			for _, set := range s.sets {
				if runErr = ctx.Err(); runErr != nil {
					root.end()
					return
				}
				r, err := reconSet(ctx, e, s, root, set)
				if err != nil {
					runErr = err
					root.end()
					return
				}
				fcnnMS = append(fcnnMS, r.fcnnMS)
				fcnnSNR = append(fcnnSNR, r.fcnnSNR)
				busy += r.busy
				recons += len(reconMethods)
				last = r
			}
			root.end()
			mem.end(true)
		}
	}, func() { mem.poll(stop, 0) })
	if runErr != nil {
		return nil, runErr
	}
	if e.tr != nil {
		if err := kernelProbes(e, s.model, last.plan, last.idx); err != nil {
			return nil, err
		}
	}
	return &outcome{
		e2e: map[string]float64{
			"setup_s":        median(setupS),
			"pretrain_s":     median(pretrainS),
			"latency_p50_ms": median(fcnnMS),
			"latency_p99_ms": quantile(fcnnMS, tailQuantile(len(fcnnMS))),
			"goodput_rps":    float64(recons) / busy.Seconds(),
			"snr_db":         mean(fcnnSNR),
			"alloc_mb":       median(mem.allocMB),
			"heap_peak_mb":   median(mem.peakMB),
		},
		samples:   map[string]int{"pretrain_s": len(pretrainS), "latency": len(fcnnMS), "cycles": len(mem.allocMB)},
		attempted: recons,
	}, nil
}

type setResult struct {
	plan    *recon.Plan
	idx     []int
	fcnnMS  float64
	fcnnSNR float64
	busy    time.Duration
}

// reconSet reconstructs one stored set with every method and scores it.
func reconSet(ctx context.Context, e *env, s *reconSetup, root *span, set stored) (setResult, error) {
	var r setResult
	sp := e.tr.start(root, "recon.set")
	defer sp.end()
	start := time.Now()
	dec, err := decodeFile(e.tr, sp, set.file)
	if err != nil {
		return r, err
	}
	r.busy += time.Since(start)
	if err := checkRoundTrip(dec, set.idx, set.vals); err != nil {
		return r, err
	}
	truth := s.truth[set.t]
	spec := recon.SpecOf(truth)

	start = time.Now()
	plan, err := newPlan(e.tr, sp, dec, spec)
	if err != nil {
		return r, err
	}
	isp := e.tr.start(sp, "recon.index")
	plan.Tree()
	isp.end()
	nsp := e.tr.start(sp, "recon.nearest_table")
	plan.NearestTable(0)
	nsp.end()
	r.busy += time.Since(start)
	r.plan, r.idx = plan, dec.Indices

	for _, name := range reconMethods {
		region := recon.Full(spec)
		if name == "natural" {
			region = s.roi
		}
		t0 := time.Now()
		vol, err := reconstructTimed(ctx, e.tr, sp, s.methods[name], plan, region)
		took := time.Since(t0)
		if err != nil {
			return r, err
		}
		r.busy += took
		snr, err := scoreRegion(truth, vol, region, spec)
		if err != nil {
			return r, err
		}
		if err := e.z.checkSNR(name, snr); err != nil {
			return r, fmt.Errorf("t=%d %.0f%%: %w", set.t, 100*set.fraction, err)
		}
		if name == "fcnn" {
			r.fcnnMS = ms(took)
			r.fcnnSNR = snr
		}
	}
	return r, nil
}

// scoreRegion is the SNR of a reconstructed region against the truth
// at the same nodes.
func scoreRegion(truth, vol *grid.Volume, region recon.Region, spec recon.GridSpec) (float64, error) {
	if region.IsFull(spec) {
		return metrics.SNR(truth, vol)
	}
	want := make([]float64, region.Len())
	for i := range want {
		want[i] = truth.Data[region.GridIndex(spec, i)]
	}
	return metrics.SNRSlices(want, vol.Data)
}

// probeTile is the row count per kernel call, the fused path's tile.
const probeTile = 512

// probeReps repeats each kernel probe over the void slab.
const probeReps = 4

// kernelProbes times the inference kernels on the run's own void
// slab: the grid nodes the last stored set (sampled at idx, ascending)
// did not sample, in tiles of probeTile rows, one kernel at a time on
// one goroutine.
func kernelProbes(e *env, model *core.FCNN, plan *recon.Plan, idx []int) error {
	root := e.tr.start(nil, "recon.probes")
	defer root.end()
	spec := plan.Spec()
	vol := spec.NewVolume()
	cloud := plan.Cloud()
	void := sampling.VoidIndices(vol, idx)
	queries := make([]mathutil.Vec3, len(void))
	for i, idx := range void {
		queries[i] = vol.PointAt(idx)
	}

	fcfg := model.Options().Features
	k := fcfg.K
	tree := plan.Tree()
	nb := make([]kdtree.Neighbor, probeTile*k)
	ex, err := features.NewExtractorWithTree(fcfg, cloud, tree, features.NormalizerFor(cloud, spec.Bounds()))
	if err != nil {
		return err
	}
	net := model.Network()
	f16, err := net.Quantize(nn.QuantF16)
	if err != nil {
		return err
	}
	x := nn.NewMatrix(probeTile, fcfg.InputWidth())
	out := nn.NewMatrix(probeTile, fcfg.OutputWidth())
	buf := net.NewInferenceBuffers(probeTile)
	flops, bytes64, bytes16 := kernelCounts(net.Config())

	tiles := func(name string, fn func(q []mathutil.Vec3) error, attrs map[string]float64) error {
		sp := e.tr.start(root, name)
		defer sp.end()
		rows := 0
		for rep := 0; rep < probeReps; rep++ {
			for lo := 0; lo < len(queries); lo += probeTile {
				q := queries[lo:min(lo+probeTile, len(queries))]
				if err := fn(q); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				rows += len(q)
			}
		}
		sp.set("rows", float64(rows))
		for key, v := range attrs {
			sp.set(key, v)
		}
		return nil
	}
	if err := tiles("kdtree.knn", func(q []mathutil.Vec3) error {
		tree.KNearestBatchInto(q, k, 1, nb)
		return nil
	}, nil); err != nil {
		return err
	}
	if err := tiles("features.batch", func(q []mathutil.Vec3) error {
		return ex.BuildBatch(q, x, nb[:k])
	}, nil); err != nil {
		return err
	}
	// The predict probes run on the feature block of the first tile:
	// the GEMM's cost does not depend on the values.
	if err := ex.BuildBatch(queries[:min(probeTile, len(queries))], x, nb[:k]); err != nil {
		return err
	}
	predict := func(p nn.Predictor) func(q []mathutil.Vec3) error {
		return func(q []mathutil.Vec3) error {
			return p.PredictInto(x.SliceRows(0, len(q)), out.SliceRows(0, len(q)), buf)
		}
	}
	if err := tiles("nn.predict", predict(net), map[string]float64{"flops_per_row": flops, "bytes_per_row": bytes64}); err != nil {
		return err
	}
	return tiles("nn.predict_f16", predict(f16), map[string]float64{"flops_per_row": flops, "bytes_per_row": bytes16})
}

// kernelCounts computes one inference row's floating-point operations
// (a multiply and an add per weight) and the bytes a probeTile-row
// call moves per row: the layer weights and biases read once per tile
// (8 bytes each at f64, 2 at f16) plus each layer's input and output
// activations at 8 bytes. These are computed from the architecture,
// not measured.
func kernelCounts(cfg nn.Config) (flops, bytesF64, bytesF16 float64) {
	widths := append(append([]int{cfg.In}, cfg.Hidden...), cfg.Out)
	var weights, acts float64
	for l := 0; l+1 < len(widths); l++ {
		in, out := float64(widths[l]), float64(widths[l+1])
		flops += 2 * in * out
		weights += in*out + out
		acts += in + out
	}
	perRowW := weights / probeTile
	return flops, 8*perRowW + 8*acts, 2*perRowW + 8*acts
}
