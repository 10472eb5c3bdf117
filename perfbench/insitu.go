package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"fillvoid/internal/codec"
	"fillvoid/internal/core"
	"fillvoid/internal/grid"
	"fillvoid/internal/metrics"
	"fillvoid/internal/parallel"
	"fillvoid/internal/recon"
)

// insituFraction is the per-timestep storage budget.
const insituFraction = 0.03

// checkSNR requires a method's SNR to be a number above its floor.
func (z sizes) checkSNR(method string, snr float64) error {
	floor, ok := z.SNRFloorDB[method]
	if !ok {
		return checkf("no SNR floor for %s", method)
	}
	if math.IsNaN(snr) || snr < floor {
		return checkf("%s SNR %.2f dB below floor %.1f dB", method, snr, floor)
	}
	return nil
}

// insituSetup is the in-situ workload's prepared input: the ground
// truth of the pretraining timestep and of each later timestep.
type insituSetup struct {
	f     field
	truth *grid.Volume
	steps []*grid.Volume
	ts    []int
	dir   string
}

func setupInsitu(e *env, n int) (*insituSetup, error) {
	f := newField(e.seed, e.z)
	s := &insituSetup{f: f, truth: f.at(e.z.T0)}
	for i := 1; i <= e.z.Steps; i++ {
		t := e.z.T0 + i*e.z.Stride
		s.ts = append(s.ts, t)
		s.steps = append(s.steps, f.at(t))
	}
	dir := filepath.Join(e.tmp, fmt.Sprintf("insitu-%d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s.dir = dir
	return s, nil
}

// runInsitu is the paper's in-situ loop. Each cycle pretrains once at
// t0, then per later timestep importance-samples 3%, encodes the
// samples to the compact codec, fine-tunes all layers (Case 1) and
// saves the model; at the end it decodes the last stored samples and
// reconstructs that timestep in full with the fine-tuned model.
func runInsitu(ctx context.Context, e *env, seconds float64, setups int) (*outcome, error) {
	n := 0
	s, setupS, err := measureSetups(setups, func() (*insituSetup, error) {
		n++
		return setupInsitu(e, n)
	}, func(*insituSetup) {})
	if err != nil {
		return nil, err
	}

	var pretrainS, stepMS, snrs []float64
	steps := 0
	mem := newMemMeter()
	var runErr error
	var elapsed time.Duration
	stop := make(chan struct{})
	parallel.Fork(func() {
		defer close(stop)
		start := time.Now()
		deadline := start.Add(time.Duration(seconds * float64(time.Second)))
		mem.begin()
		for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
			if err := ctx.Err(); err != nil {
				runErr = err
				return
			}
			root := e.tr.start(nil, "insitu.cycle")
			p, st, snr, err := insituCycle(ctx, e, s, root)
			root.end()
			if err != nil {
				runErr = err
				return
			}
			pretrainS = append(pretrainS, p)
			stepMS = append(stepMS, st...)
			steps += len(st)
			snrs = append(snrs, snr)
			mem.end(true)
		}
		elapsed = time.Since(start)
	}, func() { mem.poll(stop, 0) })
	if runErr != nil {
		return nil, runErr
	}
	return &outcome{
		e2e: map[string]float64{
			"setup_s":        median(setupS),
			"pretrain_s":     median(pretrainS),
			"latency_p50_ms": median(stepMS),
			"latency_p99_ms": quantile(stepMS, tailQuantile(len(stepMS))),
			"goodput_rps":    float64(steps) / elapsed.Seconds(),
			"snr_db":         median(snrs),
			"alloc_mb":       median(mem.allocMB),
			"heap_peak_mb":   median(mem.peakMB),
		},
		samples:   map[string]int{"pretrain_s": len(pretrainS), "latency": len(stepMS), "cycles": len(snrs)},
		attempted: steps + 2*len(snrs),
	}, nil
}

// insituCycle runs one pretrain-then-steps cycle and returns the
// pretrain seconds, each step's milliseconds and the final SNR.
func insituCycle(ctx context.Context, e *env, s *insituSetup, root *span) (float64, []float64, float64, error) {
	start := time.Now()
	model, err := pretrain(e.tr, root, s.truth, s.f, e.z)
	if err != nil {
		return 0, nil, 0, err
	}
	pretrainS := time.Since(start).Seconds()

	var stepMS []float64
	var lastIdx []int
	var lastVals []float64
	var lastFile string
	for i, truth := range s.steps {
		t0 := time.Now()
		sp := e.tr.start(root, "insitu.step")
		idx, vals, file, err := insituStep(e, s, sp, model, truth, s.ts[i])
		sp.end()
		if err != nil {
			return 0, nil, 0, err
		}
		stepMS = append(stepMS, ms(time.Since(t0)))
		lastIdx, lastVals, lastFile = idx, vals, file
	}

	// Post-hoc: read back the last stored samples and reconstruct the
	// whole timestep with the fine-tuned model.
	truth := s.steps[len(s.steps)-1]
	dec, err := decodeFile(e.tr, root, lastFile)
	if err != nil {
		return 0, nil, 0, err
	}
	if err := checkRoundTrip(dec, lastIdx, lastVals); err != nil {
		return 0, nil, 0, err
	}
	spec := recon.SpecOf(truth)
	plan, err := newPlan(e.tr, root, dec, spec)
	if err != nil {
		return 0, nil, 0, err
	}
	vol, err := reconstructTimed(ctx, e.tr, root, model, plan, recon.Full(spec))
	if err != nil {
		return 0, nil, 0, err
	}
	snr, err := metrics.SNR(truth, vol)
	if err != nil {
		return 0, nil, 0, err
	}
	if err := e.z.checkSNR("fcnn", snr); err != nil {
		return 0, nil, 0, err
	}
	return pretrainS, stepMS, snr, nil
}

// insituStep processes one timestep: sample, encode and store, fine-tune,
// save the model. It returns the stored indices and values and the
// stored file.
func insituStep(e *env, s *insituSetup, parent *span, model *core.FCNN, truth *grid.Volume, t int) ([]int, []float64, string, error) {
	cloud, idx, err := sample(e.tr, parent, truth, s.f, e.seed, int64(100+t), insituFraction)
	if err != nil {
		return nil, nil, "", err
	}
	var buf bytes.Buffer
	sp := e.tr.start(parent, "codec.encode")
	err = codec.Encode(&buf, truth, s.f.name(), idx, cloud.Values, codec.Options{})
	sp.set("bytes", float64(buf.Len()))
	sp.end()
	if err != nil {
		return nil, nil, "", fmt.Errorf("encode: %w", err)
	}
	file := filepath.Join(s.dir, fmt.Sprintf("t%02d.fvs", t))
	if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
		return nil, nil, "", err
	}

	sp = e.tr.start(parent, "core.finetune")
	err = model.FineTune(truth, importance(modelSeed, int64(200+t)), core.FineTuneAll, 0)
	sp.end()
	if err != nil {
		return nil, nil, "", fmt.Errorf("fine-tune t=%d: %w", t, err)
	}

	path := filepath.Join(s.dir, fmt.Sprintf("t%02d.model", t))
	sp = e.tr.start(parent, "core.save")
	err = model.SaveFile(path)
	if err == nil && sp != nil {
		if fi, serr := os.Stat(path); serr == nil {
			sp.set("bytes", float64(fi.Size()))
		}
	}
	sp.end()
	if err != nil {
		return nil, nil, "", fmt.Errorf("save model: %w", err)
	}
	return idx, cloud.Values, file, nil
}

// decodeFile reads and decodes one stored sample file.
func decodeFile(tr *tracer, parent *span, file string) (*codec.Decoded, error) {
	b, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	sp := tr.start(parent, "codec.decode")
	dec, err := codec.Decode(bytes.NewReader(b))
	sp.set("bytes", float64(len(b)))
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("decode %s: %w", filepath.Base(file), err)
	}
	return dec, nil
}

// checkRoundTrip verifies the codec's contract: indices come back
// exactly and every value within the stated error bound.
func checkRoundTrip(dec *codec.Decoded, idx []int, vals []float64) error {
	if len(dec.Indices) != len(idx) || dec.Cloud.Len() != len(vals) {
		return checkf("codec round trip: %d indices / %d values back, %d stored", len(dec.Indices), dec.Cloud.Len(), len(vals))
	}
	for i := range idx {
		if dec.Indices[i] != idx[i] {
			return checkf("codec round trip: index %d is %d, stored %d", i, dec.Indices[i], idx[i])
		}
		if d := math.Abs(dec.Cloud.Values[i] - vals[i]); !(d <= dec.MaxError) {
			return checkf("codec round trip: value %d off by %g, bound %g", i, d, dec.MaxError)
		}
	}
	return nil
}

// newPlan builds the query plan over a decoded cloud.
func newPlan(tr *tracer, parent *span, dec *codec.Decoded, spec recon.GridSpec) (*recon.Plan, error) {
	sp := tr.start(parent, "recon.plan")
	plan, err := recon.NewPlan(dec.Cloud, spec)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	return plan, nil
}

// reconstructTimed runs one reconstruction under a recon.<method> span
// carrying the voxel count.
func reconstructTimed(ctx context.Context, tr *tracer, parent *span, m recon.Reconstructor, plan *recon.Plan, region recon.Region) (*grid.Volume, error) {
	sp := tr.start(parent, "recon."+m.Name())
	vol, err := recon.Reconstruct(ctx, m, plan, region)
	sp.set("vox", float64(region.Len()))
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("reconstruct %s: %w", m.Name(), err)
	}
	return vol, nil
}
