package fillvoid

// Benchmark harness: one benchmark (family) per table and figure in the
// paper's evaluation. These measure the computational kernels behind
// each experiment at laptop scale; the full row/series regeneration
// lives in cmd/experiments (go run ./cmd/experiments -exp fig9 ...).
//
//	Fig 2/3   qualitative renders      -> BenchmarkFig2Render, BenchmarkFig3NaturalNeighbor
//	Fig 6     depth ablation           -> BenchmarkFig6Train/depth=*
//	Fig 7     1%+5% training set       -> BenchmarkFig7TrainingSetBuild
//	Fig 8     gradient outputs         -> BenchmarkFig8Inference/gradients=*
//	Fig 9     quality sweep            -> BenchmarkFig9Reconstruct/method=*
//	Fig 10    time vs sampling %       -> BenchmarkFig10Reconstruct/*
//	Fig 11    per-timestep fine-tune   -> BenchmarkFig11FineTune
//	Fig 12    loss traces              -> BenchmarkFig12TrainEpoch
//	Fig 13    2x upscale inference     -> BenchmarkFig13UpscaleReconstruct
//	Fig 14    training-set subsample   -> BenchmarkFig14Subsample
//	Table I   training time            -> BenchmarkTable1Training/dataset=*
//	Table II  subset training time     -> BenchmarkTable2Training/rows=*
//
// Extension benches cover the future-work substrates: BenchmarkExtIsoExtract,
// BenchmarkExtVolumeRender, BenchmarkExtEnsembleReconstruct,
// BenchmarkExtPipelineStep.

import (
	"context"
	"sync"
	"testing"

	"fillvoid/internal/core"
	"fillvoid/internal/datasets"
	"fillvoid/internal/ensemble"
	"fillvoid/internal/features"
	"fillvoid/internal/interp"
	"fillvoid/internal/iso"
	"fillvoid/internal/nn"
	"fillvoid/internal/render"
	"fillvoid/internal/sampling"
	"fillvoid/internal/stream"
	"fillvoid/internal/vtk"
	"io"
)

// benchDims keeps every benchmark fixture laptop-sized.
const (
	benchNX, benchNY, benchNZ = 32, 32, 10
	benchT                    = 10
)

var benchFix struct {
	once   sync.Once
	truth  *Volume
	cloud1 *Cloud // 1% sample
	cloud3 *Cloud // 3% sample
	model  *FCNN
	err    error
}

func benchOptions() Options {
	return Options{
		Hidden:         []int{48, 32, 16},
		Epochs:         30,
		FineTuneEpochs: 5,
		TrainFractions: []float64{0.02, 0.05},
		MaxTrainRows:   6000,
		BatchSize:      256,
		Seed:           1,
	}
}

func fixtures(b *testing.B) (*Volume, *Cloud, *Cloud, *FCNN) {
	b.Helper()
	benchFix.once.Do(func() {
		gen := datasets.NewIsabel(7)
		benchFix.truth = datasets.Volume(gen, benchNX, benchNY, benchNZ, benchT)
		s := &sampling.Importance{Seed: 3}
		var err error
		benchFix.cloud1, _, err = s.Sample(benchFix.truth, "pressure", 0.01)
		if err != nil {
			benchFix.err = err
			return
		}
		benchFix.cloud3, _, err = s.Sample(benchFix.truth, "pressure", 0.03)
		if err != nil {
			benchFix.err = err
			return
		}
		benchFix.model, benchFix.err = core.Pretrain(benchFix.truth, "pressure", s, benchOptions())
	})
	if benchFix.err != nil {
		b.Fatal(benchFix.err)
	}
	return benchFix.truth, benchFix.cloud1, benchFix.cloud3, benchFix.model
}

// --- Fig 2 / Fig 3: qualitative comparison kernels ---

func BenchmarkFig2Render(b *testing.B) {
	truth, _, _, _ := fixtures(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := vtk.RenderSlicePPM(io.Discard, truth, benchNZ/2, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3NaturalNeighbor(b *testing.B) {
	truth, cloud1, _, _ := fixtures(b)
	m := &interp.NaturalNeighbor{}
	spec := SpecOf(truth)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Reconstruct(cloud1, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 6: training cost vs network depth ---

func BenchmarkFig6Train(b *testing.B) {
	truth, _, _, _ := fixtures(b)
	for _, depth := range []int{1, 5, 9} {
		b.Run(benchName("depth", depth), func(b *testing.B) {
			opts := benchOptions()
			opts.Hidden = nn.PyramidHidden(depth, 64)
			opts.Epochs = 3
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Pretrain(truth, "pressure", &sampling.Importance{Seed: 3}, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig 7: building the concatenated 1%+5% training set ---

func BenchmarkFig7TrainingSetBuild(b *testing.B) {
	truth, _, _, _ := fixtures(b)
	s := &sampling.Importance{Seed: 3}
	cfg := features.DefaultConfig()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var combined *features.TrainingSet
		for _, frac := range []float64{0.01, 0.05} {
			cloud, idxs, err := s.Sample(truth, "pressure", frac)
			if err != nil {
				b.Fatal(err)
			}
			void := sampling.VoidIndices(truth, idxs)
			norm := features.NormalizerFor(cloud, truth.Bounds())
			ts, err := features.Build(cfg, truth, cloud, void, norm)
			if err != nil {
				b.Fatal(err)
			}
			if combined == nil {
				combined = ts
			} else if err := combined.Append(ts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Fig 8: inference with and without gradient outputs ---

func BenchmarkFig8Inference(b *testing.B) {
	truth, _, cloud3, _ := fixtures(b)
	for _, grads := range []bool{true, false} {
		name := "gradients=on"
		if !grads {
			name = "gradients=off"
		}
		b.Run(name, func(b *testing.B) {
			opts := benchOptions()
			opts.Epochs = 3
			opts.Features = features.Config{K: 5, WithGradients: grads}
			model, err := core.Pretrain(truth, "pressure", &sampling.Importance{Seed: 3}, opts)
			if err != nil {
				b.Fatal(err)
			}
			spec := SpecOf(truth)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := model.Reconstruct(cloud3, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig 9: reconstruction quality sweep (kernel: one reconstruction
// per method at 1%) ---

func BenchmarkFig9Reconstruct(b *testing.B) {
	truth, cloud1, _, model := fixtures(b)
	spec := SpecOf(truth)
	b.Run("method=fcnn", func(b *testing.B) {
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := model.Reconstruct(cloud1, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	reg := interp.StandardRegistry(0)
	for _, name := range []string{"linear", "natural", "shepard", "nearest", "rbf"} {
		m, err := reg.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("method="+name, func(b *testing.B) {
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Reconstruct(cloud1, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Engine: shared query plan vs per-method index rebuilds on a
// Fig 9-style five-method comparison run ---

func BenchmarkMultiMethodSharedPlan(b *testing.B) {
	truth, cloud1, _, model := fixtures(b)
	spec := SpecOf(truth)
	reg := NewRegistry(0)
	reg.RegisterMethod(model)
	names := []string{"fcnn", "linear", "natural", "shepard", "nearest"}
	methods := make([]Reconstructor, len(names))
	for i, name := range names {
		m, err := reg.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		methods[i] = m
	}
	ctx := context.Background()
	b.Run("shared-plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan, err := NewPlan(cloud1, spec)
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range methods {
				if _, err := Reconstruct(ctx, m, plan, FullRegion(spec)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("per-method-plans", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, m := range methods {
				if _, err := m.Reconstruct(cloud1, spec); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// --- Fig 10: reconstruction time vs sampling percentage, including the
// sequential/parallel linear contrast ---

func BenchmarkFig10Reconstruct(b *testing.B) {
	truth, _, _, model := fixtures(b)
	spec := SpecOf(truth)
	s := &sampling.Importance{Seed: 5}
	for _, frac := range []float64{0.005, 0.01, 0.03} {
		cloud, _, err := s.Sample(truth, "pressure", frac)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("fcnn/frac="+fmtFrac(frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := model.Reconstruct(cloud, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("linear/frac="+fmtFrac(frac), func(b *testing.B) {
			m := &interp.Linear{}
			for i := 0; i < b.N; i++ {
				if _, err := m.Reconstruct(cloud, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("linear-seq/frac="+fmtFrac(frac), func(b *testing.B) {
			m := &interp.Linear{Workers: 1}
			for i := 0; i < b.N; i++ {
				if _, err := m.Reconstruct(cloud, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig 11: per-timestep fine-tuning cost (Case 1, few epochs) ---

func BenchmarkFig11FineTune(b *testing.B) {
	_, _, _, model := fixtures(b)
	gen := datasets.NewIsabel(7)
	later := datasets.Volume(gen, benchNX, benchNY, benchNZ, benchT+20)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tuned, err := model.Clone()
		if err != nil {
			b.Fatal(err)
		}
		if err := tuned.FineTune(later, &sampling.Importance{Seed: 3}, core.FineTuneAll, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 12: one full training epoch (the unit of the loss traces) ---

func BenchmarkFig12TrainEpoch(b *testing.B) {
	truth, _, _, _ := fixtures(b)
	s := &sampling.Importance{Seed: 3}
	cloud, idxs, err := s.Sample(truth, "pressure", 0.05)
	if err != nil {
		b.Fatal(err)
	}
	void := sampling.VoidIndices(truth, idxs)
	norm := features.NormalizerFor(cloud, truth.Bounds())
	ts, err := features.Build(features.DefaultConfig(), truth, cloud, void, norm)
	if err != nil {
		b.Fatal(err)
	}
	net, err := nn.New(nn.Config{In: 23, Out: 4, Hidden: []int{48, 32, 16}, Seed: 1, BatchSize: 256})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := net.TrainEpochs(ts.X, ts.Y, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 13: reconstructing a 2x-per-axis grid from a low-res model ---

func BenchmarkFig13UpscaleReconstruct(b *testing.B) {
	truth, _, cloud3, model := fixtures(b)
	spec := GridSpec{
		NX: truth.NX * 2, NY: truth.NY * 2, NZ: truth.NZ * 2,
		Origin:  truth.Origin,
		Spacing: Vec3{X: truth.Spacing.X / 2, Y: truth.Spacing.Y / 2, Z: truth.Spacing.Z / 2},
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := model.Reconstruct(cloud3, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 14 / Table II: training-set subsampling ---

func BenchmarkFig14Subsample(b *testing.B) {
	truth, _, _, _ := fixtures(b)
	s := &sampling.Importance{Seed: 3}
	cloud, idxs, err := s.Sample(truth, "pressure", 0.05)
	if err != nil {
		b.Fatal(err)
	}
	void := sampling.VoidIndices(truth, idxs)
	norm := features.NormalizerFor(cloud, truth.Bounds())
	ts, err := features.Build(features.DefaultConfig(), truth, cloud, void, norm)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ts.Subsample(0.25, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table I: full-training wall clock per dataset ---

func BenchmarkTable1Training(b *testing.B) {
	for _, name := range []string{"isabel", "combustion", "ionization"} {
		b.Run("dataset="+name, func(b *testing.B) {
			gen, err := datasets.ByName(name, 7)
			if err != nil {
				b.Fatal(err)
			}
			truth := datasets.Volume(gen, benchNX, benchNY, benchNZ, benchT)
			opts := benchOptions()
			opts.Epochs = 3
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Pretrain(truth, gen.FieldName(), &sampling.Importance{Seed: 3}, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table II: training wall clock vs training-set fraction ---

func BenchmarkTable2Training(b *testing.B) {
	truth, _, _, _ := fixtures(b)
	for _, rows := range []int{6000, 3000, 1500} {
		b.Run(benchName("rows", rows), func(b *testing.B) {
			opts := benchOptions()
			opts.Epochs = 3
			opts.MaxTrainRows = rows
			for i := 0; i < b.N; i++ {
				if _, err := core.Pretrain(truth, "pressure", &sampling.Importance{Seed: 3}, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func fmtFrac(f float64) string {
	switch f {
	case 0.005:
		return "0.5pct"
	case 0.01:
		return "1pct"
	case 0.03:
		return "3pct"
	default:
		return "x"
	}
}

// --- Extension benches: the future-work substrates (isosurface
// fidelity, volume rendering, deep ensembles, in situ pipeline) ---

func BenchmarkExtIsoExtract(b *testing.B) {
	truth, _, _, _ := fixtures(b)
	st := truth.Stats()
	isovalue := st.Mean() - st.StdDev()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := iso.Extract(truth, isovalue)
		if err != nil {
			b.Fatal(err)
		}
		if m.NumTriangles() == 0 {
			b.Fatal("empty isosurface")
		}
	}
}

func BenchmarkExtVolumeRender(b *testing.B) {
	truth, _, _, _ := fixtures(b)
	st := truth.Stats()
	opts := render.Options{Lo: st.Min(), Hi: st.Max(), Width: 128, Height: 128}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := render.Render(truth, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtEnsembleReconstruct(b *testing.B) {
	truth, cloud1, _, model := fixtures(b)
	cp1, err := model.Clone()
	if err != nil {
		b.Fatal(err)
	}
	cp2, err := model.Clone()
	if err != nil {
		b.Fatal(err)
	}
	ens, err := ensemble.FromModels([]*core.FCNN{model, cp1, cp2})
	if err != nil {
		b.Fatal(err)
	}
	spec := SpecOf(truth)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := ens.Reconstruct(cloud1, spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtPipelineStep(b *testing.B) {
	truth, _, _, _ := fixtures(b)
	p, err := stream.New(stream.Config{
		Fraction:       0.02,
		FieldName:      "pressure",
		Mode:           core.FineTuneAll,
		FineTuneEpochs: 2,
		Options:        benchOptions(),
		SamplerSeed:    5,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm up: the first step pretrains.
	if _, err := p.Step(truth, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Step(truth, i+1); err != nil {
			b.Fatal(err)
		}
	}
}
