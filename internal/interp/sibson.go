package interp

import (
	"context"
	"math"

	"fillvoid/internal/grid"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/parallel"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
)

// NaturalNeighbor is discrete Sibson interpolation (Park et al., IEEE
// TVCG 2006), the efficient rasterized form of natural-neighbor
// interpolation. The continuous method weights each sample s by the
// volume q's Voronoi cell would steal from s's cell if q were inserted;
// the discrete method measures those volumes by counting grid voxels:
//
//	a voxel x with nearest sample n(x) is "stolen" by a query q
//	exactly when |x - q| < |x - n(x)|,
//
// so every voxel x scatters the value of its nearest sample to all grid
// nodes within radius |x - n(x)| of x. Accumulated sums divided by
// counts give the Sibson estimate.
//
// Box regions keep the scatter form, restricted to the region's output
// nodes but still scanning every full-grid source voxel (the stolen
// volumes are defined on the full grid); the per-voxel nearest table
// comes from the shared plan. Arbitrary point queries use the equivalent
// gather form: accumulate every voxel x with |x - q| < |x - n(x)|.
// The scatter is parallelized by output z-plane tile: each worker writes
// only rows it owns, so no synchronization is needed on the
// accumulators, and each output node receives its contributions in
// source-scan order regardless of tiling.
type NaturalNeighbor struct {
	// Workers bounds the scatter parallelism (<= 0 means all cores).
	Workers int
}

// Name implements Reconstructor.
func (r *NaturalNeighbor) Name() string { return "natural" }

// Reconstruct implements Reconstructor (legacy full-grid path).
func (r *NaturalNeighbor) Reconstruct(c *pointcloud.Cloud, spec GridSpec) (*grid.Volume, error) {
	return recon.ReconstructCloud(context.Background(), r, c, spec)
}

// planeMaxD returns, per source z-plane, the maximum scatter radius of
// its voxels — the source-plane culling bound. Memoized on the plan so
// repeated region queries share it.
func (r *NaturalNeighbor) planeMaxD(p *recon.Plan, nearestD2 []float64) []float64 {
	//lint:allow errdrop: the memo builder below always returns a nil error
	v, _ := p.Memo("natural/plane-max-d", func() (any, error) {
		spec := p.Spec()
		nxy := spec.NX * spec.NY
		out := make([]float64, spec.NZ)
		parallel.For(spec.NZ, r.Workers, func(sk int) {
			base := sk * nxy
			maxD2 := 0.0
			for o := 0; o < nxy; o++ {
				if nearestD2[base+o] > maxD2 {
					maxD2 = nearestD2[base+o]
				}
			}
			out[sk] = math.Sqrt(maxD2)
		})
		return out, nil
	})
	return v.([]float64)
}

// ReconstructRegion implements Reconstructor.
func (r *NaturalNeighbor) ReconstructRegion(ctx context.Context, p *recon.Plan, region recon.Region, dst []float64) error {
	c := p.Cloud()
	spec := p.Spec()
	// Squared distances are kept exact throughout — taking a square root
	// and re-squaring would flip strict comparisons at the exact ties
	// regular grids produce constantly.
	nearestIdx, nearestD2 := p.NearestTable(r.Workers)
	planeMaxD := r.planeMaxD(p, nearestD2)
	if region.IsPoints() {
		return r.gatherPoints(ctx, p, region.Points, dst, nearestIdx, nearestD2, planeMaxD)
	}

	// Scatter, decomposed by output z-plane tile. Accumulators are
	// region-local; sources are the full grid.
	w := region.I1 - region.I0
	h := region.J1 - region.J0
	nzr := region.K1 - region.K0
	sums := make([]float64, region.Len())
	counts := make([]int32, region.Len())
	workers := r.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	if workers > nzr {
		workers = nzr
	}
	nxy := spec.NX * spec.NY
	err := parallel.ForChunkedCtx(ctx, nzr, workers, func(zLo, zHi int) error {
		// Absolute output planes this tile owns.
		kLo, kHi := region.K0+zLo, region.K0+zHi
		// Source voxels at plane sk can reach output planes within
		// ceil(d / spacing.Z); scan the superset of source planes whose
		// scatter balls intersect [kLo, kHi).
		for sk := 0; sk < spec.NZ; sk++ {
			base := sk * nxy
			reach := int(planeMaxD[sk]/spec.Spacing.Z) + 1
			if sk+reach < kLo || sk-reach >= kHi {
				continue
			}
			for sj := 0; sj < spec.NY; sj++ {
				for si := 0; si < spec.NX; si++ {
					src := base + sj*spec.NX + si
					d2 := nearestD2[src]
					if d2 == 0 {
						continue // sampled node: no stolen volume
					}
					val := c.Values[nearestIdx[src]]
					scatterBall(spec, region, si, sj, sk, d2, val, kLo, kHi, w, h, sums, counts)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Finalize. Nodes that coincide with a sample (d = 0) keep the exact
	// sampled value — natural neighbor interpolation is exact at the
	// samples; nodes nothing scattered to fall back to nearest.
	return parallel.ForCtx(ctx, region.Len(), r.Workers, func(m int) error {
		g := region.GridIndex(spec, m)
		switch {
		case nearestD2[g] == 0:
			dst[m] = c.Values[nearestIdx[g]]
		case counts[m] > 0:
			dst[m] = sums[m] / float64(counts[m])
		default:
			dst[m] = c.Values[nearestIdx[g]]
		}
		return nil
	})
}

// gatherPoints answers arbitrary query points in the gather form of the
// same discrete-Sibson estimate: accumulate the nearest-sample value of
// every grid voxel x the query would steal (|x - q| < |x - n(x)|).
// A query that lies exactly on a grid node measures its distances in
// integer node offsets, as scatterBall does, so it reproduces the box
// form's value for that node bit for bit; elsewhere the offsets are
// world-space differences.
func (r *NaturalNeighbor) gatherPoints(ctx context.Context, p *recon.Plan, pts []mathutil.Vec3, dst []float64, nearestIdx []int32, nearestD2 []float64, planeMaxD []float64) error {
	c := p.Cloud()
	spec := p.Spec()
	tree := p.Tree()
	return parallel.ForCtx(ctx, len(pts), r.Workers, func(m int) error {
		q := pts[m]
		bi, bd2 := tree.Nearest(q)
		if bd2 == 0 {
			dst[m] = c.Values[bi]
			return nil
		}
		qi, qj, qk, onNode := gridNode(spec, q)
		sum := 0.0
		count := 0
		for sk := 0; sk < spec.NZ; sk++ {
			var dz float64
			if onNode {
				// scatterBall's source-plane reach, for the one output plane qk.
				reach := int(planeMaxD[sk]/spec.Spacing.Z) + 1
				if sk+reach < qk || sk-reach > qk {
					continue
				}
				dz = float64(qk-sk) * spec.Spacing.Z
			} else {
				dz = spec.Origin.Z + float64(sk)*spec.Spacing.Z - q.Z
				if math.Abs(dz) >= planeMaxD[sk] {
					continue
				}
			}
			dz2 := dz * dz
			base := sk * spec.NX * spec.NY
			for sj := 0; sj < spec.NY; sj++ {
				dy := spec.Origin.Y + float64(sj)*spec.Spacing.Y - q.Y
				if onNode {
					dy = float64(qj-sj) * spec.Spacing.Y
				}
				dyz2 := dz2 + dy*dy
				row := base + sj*spec.NX
				for si := 0; si < spec.NX; si++ {
					src := row + si
					d2 := nearestD2[src]
					if d2 == 0 {
						continue
					}
					dx := spec.Origin.X + float64(si)*spec.Spacing.X - q.X
					if onNode {
						dx = float64(qi-si) * spec.Spacing.X
					}
					if dyz2+dx*dx < d2 {
						sum += c.Values[nearestIdx[src]]
						count++
					}
				}
			}
		}
		if count > 0 {
			dst[m] = sum / float64(count)
		} else {
			dst[m] = c.Values[bi]
		}
		return nil
	})
}

// gridNode returns the indices of the grid node q coincides with
// exactly (spec.Point(i, j, k) == q), if there is one.
func gridNode(spec GridSpec, q mathutil.Vec3) (i, j, k int, ok bool) {
	i, okI := nodeIndex(spec.Origin.X, spec.Spacing.X, q.X, spec.NX)
	j, okJ := nodeIndex(spec.Origin.Y, spec.Spacing.Y, q.Y, spec.NY)
	k, okK := nodeIndex(spec.Origin.Z, spec.Spacing.Z, q.Z, spec.NZ)
	return i, j, k, okI && okJ && okK
}

// nodeIndex is gridNode along one axis: the index in [0, n) whose
// coordinate origin + idx*spacing equals v exactly.
func nodeIndex(origin, spacing, v float64, n int) (int, bool) {
	f := 0.0
	if spacing != 0 {
		f = math.Round((v - origin) / spacing)
	}
	if !(f >= 0 && f < float64(n)) { // also rejects NaN
		return 0, false
	}
	idx := int(f)
	//lint:allow floateq: on-node means bit-identical to the grid's own coordinate expression
	return idx, origin+float64(idx)*spacing == v
}

// scatterBall adds val to every region output node whose squared
// distance to the source node (si, sj, sk) is strictly below d2,
// restricted to absolute output planes [kLo, kHi) and the region's i/j
// box. The index bounds may be slightly generous (the sqrt is only used
// for bounding); the inclusion test uses d2 exactly. w and h are the
// region's x/y extents for region-local indexing.
func scatterBall(spec GridSpec, region recon.Region, si, sj, sk int, d2, val float64, kLo, kHi, w, h int, sums []float64, counts []int32) {
	d := math.Sqrt(d2)
	ri := int(d/spec.Spacing.X) + 1
	rj := int(d/spec.Spacing.Y) + 1
	rk := int(d/spec.Spacing.Z) + 1
	kMin := maxInt(sk-rk, kLo)
	kMax := minInt(sk+rk, kHi-1)
	for k := kMin; k <= kMax; k++ {
		dz := float64(k-sk) * spec.Spacing.Z
		dz2 := dz * dz
		if dz2 >= d2 {
			continue
		}
		jMin := maxInt(sj-rj, region.J0)
		jMax := minInt(sj+rj, region.J1-1)
		for j := jMin; j <= jMax; j++ {
			dy := float64(j-sj) * spec.Spacing.Y
			dyz2 := dz2 + dy*dy
			if dyz2 >= d2 {
				continue
			}
			iMin := maxInt(si-ri, region.I0)
			iMax := minInt(si+ri, region.I1-1)
			row := w * ((j - region.J0) + h*(k-region.K0))
			for i := iMin; i <= iMax; i++ {
				dx := float64(i-si) * spec.Spacing.X
				if dyz2+dx*dx < d2 {
					m := row + (i - region.I0)
					sums[m] += val
					counts[m]++
				}
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
