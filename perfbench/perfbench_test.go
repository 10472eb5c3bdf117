package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fillvoid/internal/codec"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/nn"
	"fillvoid/internal/pointcloud"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Fatalf("q25 = %v, want 2", got)
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Fatalf("interpolated median = %v, want 1.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing should be NaN")
	}
	if xs[0] != 4 {
		t.Fatal("quantile sorted its input in place")
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{2000, 0.99}, {1000, 0.99}, {200, 0.95}, {20, 0.5}, {5, 0.5}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestLayerTableSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []spanRec{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 50 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "a", Start: 90 * ms, End: 120 * ms}, // runs past root
	}
	rows := map[string]layerRow{}
	for _, r := range layerTable(spans) {
		rows[r.Name] = r
	}
	// Children cover [10,50) and [90,100) of the root: 50ms.
	if got := rows["root"].Self; got != 50*ms {
		t.Fatalf("root self = %v, want 50ms", got)
	}
	if r := rows["a"]; r.Count != 2 || r.Total != 60*ms || r.Self != 60*ms {
		t.Fatalf("a = %+v", r)
	}
}

func TestStitch(t *testing.T) {
	dims := [3]int{4, 2, 1}
	want := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	// Two chunks split along x, as the server splits along the largest
	// axis: plain concatenation would be wrong.
	chunks := []progressiveChunk{
		{box: [6]int{0, 0, 0, 2, 2, 1}, values: []float64{0, 1, 4, 5}},
		{box: [6]int{2, 0, 0, 4, 2, 1}, values: []float64{2, 3, 6, 7}},
	}
	got, err := stitch(dims, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(want, got); err != nil {
		t.Fatal(err)
	}
	if _, err := stitch(dims, chunks[:1]); err == nil {
		t.Fatal("a missing chunk went unnoticed")
	}
	if _, err := stitch(dims, []progressiveChunk{chunks[0], chunks[0], chunks[1]}); err == nil {
		t.Fatal("an overlapping chunk went unnoticed")
	}
}

func TestSameBits(t *testing.T) {
	if err := sameBits([]float64{1, 2}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if sameBits([]float64{1, 2}, []float64{1, math.Nextafter(2, 3)}) == nil {
		t.Fatal("a one-ulp difference went unnoticed")
	}
	if sameBits([]float64{0}, []float64{math.Copysign(0, -1)}) == nil {
		t.Fatal("-0 and +0 must differ bitwise")
	}
	if sameBits([]float64{1}, nil) == nil {
		t.Fatal("a length mismatch went unnoticed")
	}
}

func TestCheckRoundTrip(t *testing.T) {
	f := newField(1, testSizes)
	truth := f.at(testSizes.T0)
	c, idx, err := sample(nil, nil, truth, f, 1, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := codec.Encode(&buf, truth, f.name(), idx, c.Values, codec.Options{ValueBits: 8}); err != nil {
		t.Fatal(err)
	}
	dec, err := codec.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRoundTrip(dec, idx, c.Values); err != nil {
		t.Fatal(err)
	}
	bad := append([]float64(nil), c.Values...)
	bad[0] += 10 * dec.MaxError
	var ce *checkError
	if err := checkRoundTrip(dec, idx, bad); !errors.As(err, &ce) {
		t.Fatalf("value beyond the bound: err = %v, want a check error", err)
	}
	if err := checkRoundTrip(dec, idx[1:], c.Values[1:]); !errors.As(err, &ce) {
		t.Fatalf("count mismatch: err = %v, want a check error", err)
	}
}

func TestCheckSNR(t *testing.T) {
	if err := fullSizes.checkSNR("fcnn", 11); err != nil {
		t.Fatal(err)
	}
	for _, snr := range []float64{0, math.NaN()} {
		if fullSizes.checkSNR("fcnn", snr) == nil {
			t.Errorf("SNR %v passed the fcnn floor", snr)
		}
	}
	if fullSizes.checkSNR("unknown", 50) == nil {
		t.Error("a method without a floor passed")
	}
	for _, m := range reconMethods {
		if _, ok := fullSizes.SNRFloorDB[m]; !ok {
			t.Errorf("no SNR floor for %s", m)
		}
	}
}

func TestKernelCounts(t *testing.T) {
	flops, b64, b16 := kernelCounts(nn.Config{In: 23, Out: 4, Hidden: []int{48, 32, 16}})
	// Weights 23*48 + 48*32 + 32*16 + 16*4 = 3216; 2 flops each.
	if flops != 6432 {
		t.Fatalf("flops = %v, want 6432", flops)
	}
	params := 3216.0 + 48 + 32 + 16 + 4
	acts := float64(23+48) + (48 + 32) + (32 + 16) + (16 + 4)
	if want := 8*params/probeTile + 8*acts; b64 != want {
		t.Fatalf("f64 bytes = %v, want %v", b64, want)
	}
	if want := 2*params/probeTile + 8*acts; b16 != want {
		t.Fatalf("f16 bytes = %v, want %v", b16, want)
	}
}

func TestWireCloud(t *testing.T) {
	c := pointcloud.New("p", 1)
	c.Add(mathutil.Vec3{X: 1, Y: 2, Z: 3}, 1.5)
	cj := wireCloud(c)
	if len(cj.Points) != 1 || cj.Points[0] != [3]float64{1, 2, 3} || cj.Values[0] != 1.5 || cj.Name != "p" {
		t.Fatalf("wire cloud = %+v", cj)
	}
}

func TestScheduleComposition(t *testing.T) {
	for _, m := range []mix{serveMix, clusterMix} {
		if n := len(m.block()); n != 40 {
			t.Errorf("block of %d requests, want 40", n)
		}
	}
	cdf := zipfCDF(4, 1.2)
	if math.Abs(cdf[3]-1) > 1e-12 || cdf[0] <= cdf[1]-cdf[0] {
		t.Fatalf("zipf cdf = %v", cdf)
	}
}

// runToy runs the benchmark at toy sizes and returns the result line.
func runToy(t *testing.T, args ...string) resultLine {
	t.Helper()
	var out, errb bytes.Buffer
	args = append(args, "-root", t.TempDir())
	if code := runSized(args, &out, &errb, testSizes); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var hdr struct {
		Header map[string]any `json:"header"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Header["gomaxprocs"] == nil {
		t.Fatalf("first line is not a run header: %q (%v)", lines[0], err)
	}
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	return res
}

func TestWorkloadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			res := runToy(t, "-workload", w.name, "-seconds", "0.3", "-seed", "3")
			for _, m := range e2eMetrics {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("metric %s: %+v", m.name, got)
					continue
				}
				if m.name != "snr_db" && !(got.Value > 0) {
					t.Errorf("%s = %v, want > 0", m.name, got.Value)
				}
			}
		})
	}
}

func TestTracedRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := filepath.Join(t.TempDir(), "trace.json")
	res := runToy(t, "-workload", "recon", "-seconds", "0.4", "-trace", "1", "-trace-out", out)
	for _, m := range layerMetricDefs {
		if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("per-layer metric %s: %+v", m.name, got)
		}
	}
	if len(res.Metrics) != len(layerMetricDefs) {
		t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(layerMetricDefs))
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil || len(tr.TraceEvents) == 0 {
		t.Fatalf("trace file: %d events, err %v", len(tr.TraceEvents), err)
	}
	runs := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		runs[ev.Args["run_id"].(string)] = true
	}
	if len(runs) != len(workloads()) {
		t.Errorf("trace has runs %v, want one per workload", runs)
	}
}

func TestBadArguments(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	if code := run([]string{"-workload", "recon", "-trace", "2"}, &out, &errb); code == 0 {
		t.Fatal("--trace 2 accepted")
	}
}
