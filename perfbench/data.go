package main

import (
	"fmt"

	"fillvoid/internal/core"
	"fillvoid/internal/datasets"
	"fillvoid/internal/grid"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/sampling"
	"fillvoid/internal/server"
)

// sizes holds every size knob of the workloads. The benchmark runs at
// fullSizes; the package tests run the same code at testSizes.
type sizes struct {
	// Div is the Isabel analog's resolution divisor (4: 62x62x12).
	Div int
	// T0 is the pretraining timestep; Stride spaces the later steps.
	T0, Stride, Steps int
	// Hidden, Epochs, FineTuneEpochs, MaxTrainRows and BatchSize are
	// the FCNN's tiny-scale training configuration.
	Hidden         []int
	Epochs         int
	FineTuneEpochs int
	MaxTrainRows   int
	BatchSize      int
	// ReconSteps are the timesteps recon stores at each of Fractions.
	ReconSteps []int
	Fractions  []float64
	// ServeClouds is the number of distinct clouds serve uploads: more
	// than the server's 16-entry plan cache, so cold plans occur.
	// ClusterClouds fits every replica's plan cache, so the cluster
	// measures routing, fan-out and stitching on warm plans.
	ServeClouds, ClusterClouds int
	// ServeRPS and ClusterRPS are the serving workloads' nominal
	// arrival rates, low enough that a small query rarely waits behind
	// a full grid on the 2-core reference box. LimitMS is the latency
	// limit goodput counts against.
	ServeRPS, ClusterRPS float64
	LimitMS              float64
	// ShardThreshold is the cluster's fan-out threshold in points.
	ShardThreshold int
	// SweepSeconds is how long the traced run spends on each other
	// workload to reach the layers the traced workload does not.
	SweepSeconds float64
	// SNRFloorDB is the lowest SNR each method may reach before the run
	// counts as incorrect.
	SNRFloorDB map[string]float64
	// Setups is how many times a run sets up; setup_s is their median.
	Setups int
}

var fullSizes = sizes{
	Div: 4, T0: 12, Stride: 5, Steps: 6,
	Hidden: []int{48, 32, 16}, Epochs: 40, FineTuneEpochs: 5, MaxTrainRows: 6000, BatchSize: 256,
	ReconSteps: []int{18, 30, 42}, Fractions: []float64{0.01, 0.03, 0.05},
	ServeClouds: 24, ClusterClouds: 12,
	ServeRPS: 12, ClusterRPS: 10, LimitMS: 1000,
	ShardThreshold: 4096,
	SweepSeconds:   2,
	Setups:         5,
	// About 3 dB under the lowest SNR each method reached over 40 seeds
	// (fcnn 7.05, linear 13.06, shepard 12.02, nearest 10.32, natural
	// 11.52 on the ROI), so a broken method fails and seed-to-seed
	// variation does not.
	SNRFloorDB: map[string]float64{
		"fcnn": 4, "fcnn-f16": 4, "linear": 10, "shepard": 9, "nearest": 7, "natural": 8,
	},
}

var testSizes = sizes{
	Div: 16, T0: 12, Stride: 12, Steps: 2,
	Hidden: []int{8, 8}, Epochs: 3, FineTuneEpochs: 1, MaxTrainRows: 500, BatchSize: 64,
	ReconSteps: []int{24}, Fractions: []float64{0.05, 0.1},
	ServeClouds: 3, ClusterClouds: 2,
	ServeRPS: 40, ClusterRPS: 40, LimitMS: 2000,
	ShardThreshold: 64,
	SweepSeconds:   0.3,
	Setups:         1,
	// A toy network on a toy grid has no meaningful quality; the floor
	// only rejects NaN.
	SNRFloorDB: map[string]float64{
		"fcnn": -1000, "fcnn-f16": -1000, "linear": -1000, "shepard": -1000, "nearest": -1000, "natural": -1000,
	},
}

// field is the seeded Isabel analog at the run's resolution.
type field struct {
	gen        datasets.Generator
	nx, ny, nz int
}

func newField(seed int64, z sizes) field {
	gen := datasets.NewIsabel(seed)
	nx, ny, nz := gen.DefaultDims(z.Div)
	return field{gen: gen, nx: nx, ny: ny, nz: nz}
}

// at materializes the ground truth at timestep t.
func (f field) at(t int) *grid.Volume { return datasets.Volume(f.gen, f.nx, f.ny, f.nz, t) }

func (f field) name() string { return f.gen.FieldName() }

// modelSeed fixes the FCNN's initialization, shuffling and
// training-set sampling. It is part of the model's configuration, not
// of the workload's input: the run seed varies the data, the stored
// samples and the requests, and leaves the model's quality alone.
const modelSeed = 1

// coreOptions is the tiny-scale FCNN configuration.
func (z sizes) coreOptions() core.Options {
	return core.Options{
		Hidden:         z.Hidden,
		Epochs:         z.Epochs,
		FineTuneEpochs: z.FineTuneEpochs,
		TrainFractions: []float64{0.01, 0.05},
		MaxTrainRows:   z.MaxTrainRows,
		BatchSize:      z.BatchSize,
		Seed:           modelSeed,
	}
}

// importance is the paper's sampler with a stream derived from the run
// seed and a salt.
func importance(seed, salt int64) *sampling.Importance {
	return &sampling.Importance{Seed: seed*1_000_003 + salt}
}

// pretrain trains the FCNN at the field's pretraining timestep.
func pretrain(tr *tracer, parent *span, truth *grid.Volume, f field, z sizes) (*core.FCNN, error) {
	sp := tr.start(parent, "core.pretrain")
	m, err := core.Pretrain(truth, f.name(), importance(modelSeed, 1), z.coreOptions())
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("pretrain: %w", err)
	}
	return m, nil
}

// sample importance-samples truth at fraction.
func sample(tr *tracer, parent *span, truth *grid.Volume, f field, seed, salt int64, fraction float64) (*pointcloud.Cloud, []int, error) {
	sp := tr.start(parent, "sampling.sample")
	c, idxs, err := importance(seed, salt).Sample(truth, f.name(), fraction)
	sp.set("points", float64(len(idxs)))
	sp.end()
	if err != nil {
		return nil, nil, fmt.Errorf("sample %.3g: %w", fraction, err)
	}
	return c, idxs, nil
}

// wireCloud converts a cloud to its HTTP form.
func wireCloud(c *pointcloud.Cloud) *server.CloudJSON {
	cj := &server.CloudJSON{Name: c.Name, Values: c.Values, Points: make([][3]float64, len(c.Points))}
	for i, p := range c.Points {
		cj.Points[i] = [3]float64{p.X, p.Y, p.Z}
	}
	return cj
}
