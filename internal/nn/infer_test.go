package nn

import (
	"math"
	"testing"

	"fillvoid/internal/mathutil"
)

func testNetwork(t testing.TB) *Network {
	t.Helper()
	n, err := New(Config{In: 23, Out: 4, Hidden: []int{64, 32, 16}, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func randomInput(rows, cols int, seed int64) *Matrix {
	rng := mathutil.NewRNG(seed)
	x := NewMatrix(rows, cols)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// TestPredictIntoBitIdentical pins the fused-kernel contract: the
// blocked forward pass, alone and tiled across Predict's workers,
// produces exactly the bits of the row-at-a-time reference, across
// batch sizes that exercise every unroll remainder and tile boundary.
func TestPredictIntoBitIdentical(t *testing.T) {
	n := testNetwork(t)
	buf := n.NewInferenceBuffers(1100)
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 64, 257, 1100} {
		x := randomInput(rows, 23, int64(rows))
		want := refPredict(n, x)
		out := NewMatrix(rows, 4)
		if err := n.PredictInto(x, out, buf); err != nil {
			t.Fatal(err)
		}
		pred, err := n.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if math.Float64bits(out.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("rows=%d element %d: fused %x, reference %x", rows, i, out.Data[i], want.Data[i])
			}
			if math.Float64bits(pred.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("rows=%d element %d: Predict %x, reference %x", rows, i, pred.Data[i], want.Data[i])
			}
		}
	}
}

func TestPredictIntoShapeErrors(t *testing.T) {
	n := testNetwork(t)
	buf := n.NewInferenceBuffers(8)
	if err := n.PredictInto(NewMatrix(4, 22), NewMatrix(4, 4), buf); err == nil {
		t.Error("wrong input width accepted")
	}
	if err := n.PredictInto(NewMatrix(4, 23), NewMatrix(4, 3), buf); err == nil {
		t.Error("wrong output width accepted")
	}
	if err := n.PredictInto(NewMatrix(9, 23), NewMatrix(9, 4), buf); err == nil {
		t.Error("overflow of buffer capacity accepted")
	}
	if err := n.PredictInto(NewMatrix(4, 23), NewMatrix(4, 4), nil); err == nil {
		t.Error("nil buffers accepted")
	}
}

// TestPredictIntoZeroAllocs pins the steady-state allocation contract of
// the fused path for both precision modes.
func TestPredictIntoZeroAllocs(t *testing.T) {
	n := testNetwork(t)
	x := randomInput(128, 23, 9)
	out := NewMatrix(128, 4)
	buf := n.NewInferenceBuffers(128)
	if a := testing.AllocsPerRun(50, func() {
		if err := n.PredictInto(x, out, buf); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("PredictInto: %v allocs/op, want 0", a)
	}
	q, err := n.Quantize(QuantF16)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() {
		if err := q.PredictInto(x, out, buf); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Quantized.PredictInto: %v allocs/op, want 0", a)
	}
}

// TestQuantizedClose bounds the quantized forward pass against the f64
// reference. The bound is loose (activations compound per layer) but
// catches any structural mistake in the dequantizing kernels.
func TestQuantizedClose(t *testing.T) {
	n := testNetwork(t)
	x := randomInput(200, 23, 11)
	want, err := n.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	scale := 0.0
	for _, v := range want.Data {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	for mode, tol := range map[QuantMode]float64{QuantF16: 1e-2, QuantInt8: 0.2} {
		q, err := n.Quantize(mode)
		if err != nil {
			t.Fatal(err)
		}
		out := NewMatrix(200, 4)
		if err := q.PredictInto(x, out, q.NewInferenceBuffers(200)); err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if d := math.Abs(out.Data[i] - want.Data[i]); d > tol*scale {
				t.Fatalf("%v element %d: |%g - %g| = %g beyond %g", mode, i, out.Data[i], want.Data[i], d, tol*scale)
			}
		}
	}
}

func TestQuantModeParse(t *testing.T) {
	for s, want := range map[string]QuantMode{"": QuantNone, "none": QuantNone, "f64": QuantNone, "f16": QuantF16, "int8": QuantInt8} {
		got, err := ParseQuantMode(s)
		if err != nil || got != want {
			t.Errorf("ParseQuantMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseQuantMode("f32"); err == nil {
		t.Error("ParseQuantMode accepted f32")
	}
	if QuantF16.String() != "f16" || QuantInt8.String() != "int8" || QuantNone.String() != "none" {
		t.Error("QuantMode.String mismatch")
	}
}

func TestQuantizeRejectsNone(t *testing.T) {
	n := testNetwork(t)
	if _, err := n.Quantize(QuantNone); err == nil {
		t.Error("Quantize(QuantNone) succeeded")
	}
}

func BenchmarkPredictInto(b *testing.B) {
	n := testNetwork(b)
	x := randomInput(512, 23, 3)
	out := NewMatrix(512, 4)
	buf := n.NewInferenceBuffers(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.PredictInto(x, out, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictIntoF16(b *testing.B) {
	n := testNetwork(b)
	q, err := n.Quantize(QuantF16)
	if err != nil {
		b.Fatal(err)
	}
	x := randomInput(512, 23, 3)
	out := NewMatrix(512, 4)
	buf := q.NewInferenceBuffers(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.PredictInto(x, out, buf); err != nil {
			b.Fatal(err)
		}
	}
}
