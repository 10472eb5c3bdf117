package interp

import (
	"context"
	"math"
	"testing"

	"fillvoid/internal/grid"
	"fillvoid/internal/kdtree"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
	"fillvoid/internal/sampling"
)

// bruteSibson is a direct (gather-form) reference implementation of
// discrete Sibson interpolation: for every output node q, scan EVERY
// grid voxel x and count it toward sample n(x) when |x-q| < |x-n(x)|.
// O(N^2) — only usable on tiny grids, but unambiguous.
func bruteSibson(c *pointcloud.Cloud, spec GridSpec) *grid.Volume {
	out := spec.NewVolume()
	tree := kdtree.Build(c.Points)
	n := out.Len()
	nearestIdx := make([]int, n)
	nearestD2 := make([]float64, n)
	for i := 0; i < n; i++ {
		nearestIdx[i], nearestD2[i] = tree.Nearest(out.PointAt(i))
	}
	for q := 0; q < n; q++ {
		if nearestD2[q] == 0 {
			out.Data[q] = c.Values[nearestIdx[q]]
			continue
		}
		qp := out.PointAt(q)
		sum, count := 0.0, 0
		for x := 0; x < n; x++ {
			if nearestD2[x] == 0 {
				continue
			}
			if out.PointAt(x).Dist2(qp) < nearestD2[x] {
				sum += c.Values[nearestIdx[x]]
				count++
			}
		}
		if count > 0 {
			out.Data[q] = sum / float64(count)
		} else {
			out.Data[q] = c.Values[nearestIdx[q]]
		}
	}
	return out
}

func TestDiscreteSibsonMatchesBruteForce(t *testing.T) {
	v := grid.New(10, 9, 8)
	v.Fill(func(_, _, _ int, p mathutil.Vec3) float64 {
		return math.Sin(p.X*0.8) + p.Y*0.3 - p.Z*p.Z*0.05
	})
	cloud, _, err := (&sampling.Random{Seed: 5}).Sample(v, "f", 0.06)
	if err != nil {
		t.Fatal(err)
	}
	spec := SpecOf(v)
	want := bruteSibson(cloud, spec)
	got, err := (&NaturalNeighbor{}).Reconstruct(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	if d := grid.MaxAbsDiff(want, got); d > 1e-9 {
		t.Fatalf("scatter implementation deviates from gather reference by %g", d)
	}
}

func TestDiscreteSibsonMatchesBruteForceAcrossWorkerCounts(t *testing.T) {
	// The z-slab decomposition must be invariant to the worker count.
	v := grid.New(8, 8, 12)
	v.Fill(func(_, _, _ int, p mathutil.Vec3) float64 { return p.X + 2*p.Y - p.Z })
	cloud, _, err := (&sampling.Random{Seed: 9}).Sample(v, "f", 0.08)
	if err != nil {
		t.Fatal(err)
	}
	spec := SpecOf(v)
	ref, err := (&NaturalNeighbor{Workers: 1}).Reconstruct(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 5, 16} {
		got, err := (&NaturalNeighbor{Workers: workers}).Reconstruct(cloud, spec)
		if err != nil {
			t.Fatal(err)
		}
		if d := grid.MaxAbsDiff(ref, got); d != 0 {
			t.Fatalf("workers=%d deviates by %g", workers, d)
		}
	}
}

// Every grid node queried as a point must reproduce the box (scatter)
// form's value bit for bit, on a grid whose origin and spacings are not
// exact binary fractions: world-space differences q - x and integer
// offsets (k - s)·spacing round differently there.
func TestNaturalPointsMatchBoxAtEveryNode(t *testing.T) {
	v := grid.NewWithGeometry(12, 11, 9, mathutil.Vec3{X: 0.3, Y: -1.7, Z: 2.1}, mathutil.Vec3{X: 0.37, Y: 0.53, Z: 0.29})
	v.Fill(func(_, _, _ int, p mathutil.Vec3) float64 { return math.Sin(p.X*1.3) + p.Y*p.Z })
	cloud, _, err := (&sampling.Random{Seed: 4}).Sample(v, "f", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	spec := SpecOf(v)
	plan, err := recon.NewPlan(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	m := &NaturalNeighbor{Workers: 2}
	box, err := recon.Reconstruct(context.Background(), m, plan, recon.Full(spec))
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]mathutil.Vec3, v.Len())
	for n := range pts {
		pts[n] = v.PointAt(n)
	}
	got, err := recon.ReconstructPoints(context.Background(), m, plan, pts)
	if err != nil {
		t.Fatal(err)
	}
	for n, want := range box.Data {
		if math.Float64bits(got[n]) != math.Float64bits(want) {
			t.Fatalf("node %d at %v: points %v, box %v", n, pts[n], got[n], want)
		}
	}
}
