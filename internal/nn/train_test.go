package nn

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// trainPair builds two identically initialized networks: one for the
// fused trainer, one for the row-at-a-time reference.
func trainPair(t *testing.T, cfg Config, prep func(*Network)) (fused, ref *Network) {
	t.Helper()
	fused, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(fused)
		prep(ref)
	}
	return fused, ref
}

// mustSameModel asserts the fused and reference runs agree bit for bit
// in the resumable state (weights, biases, Adam m/v/t, Losses, shuffle
// position) and in the canonical WriteStable serialization.
func mustSameModel(t *testing.T, fused, ref *Network) {
	t.Helper()
	mustEqualState(t, fused.CaptureTrainState(), ref.CaptureTrainState())
	var a, b bytes.Buffer
	if err := fused.WriteStable(&a); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteStable(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteStable bytes differ")
	}
}

func mustSameLosses(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d losses, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", name, i, got[i], want[i])
		}
	}
}

// killUnits drives the first three units of the first layer dead for
// every input (a whole register block of zero dZ) and shifts the rest
// so many rows switch individual units off.
func killUnits(n *Network) {
	b := n.layers[0].b
	for o := range b {
		if o < 3 {
			b[o] = -1e3
		} else {
			b[o] = -0.5
		}
	}
}

// TestFusedTrainerMatchesReference is the fused trainer's bit-identity
// property: across worker counts, ragged minibatches, frozen layers and
// dead ReLUs, TrainEpochs lands on exactly the reference's state.
func TestFusedTrainerMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		rows  int
		batch int
		prep  func(*Network)
	}{
		{"partial-last-batch", 203, 32, nil},
		{"empty-shard-last-batch", 36, 32, nil}, // 4 rows over 3+ workers leaves a worker idle
		{"fewer-rows-than-workers", 5, 32, nil},
		{"single-row", 1, 32, nil},
		{"case2-frozen", 150, 24, func(n *Network) { n.FreezeAllButLast(2) }},
		{"dead-relu", 150, 24, killUnits},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2, 3, 4, 7} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				cfg := Config{In: 5, Out: 3, Hidden: []int{9, 6, 5}, Seed: 11, BatchSize: c.batch, Workers: workers}
				fused, ref := trainPair(t, cfg, c.prep)
				x := randomInput(c.rows, cfg.In, 21)
				y := randomInput(c.rows, cfg.Out, 22)
				got, err := fused.TrainEpochs(x, y, 3)
				if err != nil {
					t.Fatal(err)
				}
				mustSameLosses(t, "losses", got, refTrainEpochs(ref, x, y, 3))
				mustSameModel(t, fused, ref)
			})
		}
	}
}

// TestFusedTrainWithValidationMatchesReference extends the property to
// the early-stopping loop: same per-epoch train/validation losses, same
// stopping epoch, same restored best weights.
func TestFusedTrainWithValidationMatchesReference(t *testing.T) {
	f := func(a, b float64) float64 { return math.Sin(5*a) - b }
	x, y := makeRegression(40, 31, f)
	vx, vy := makeRegression(100, 32, f)
	for _, workers := range []int{1, 2, 3, 4, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := Config{In: 2, Out: 1, Hidden: []int{24, 12}, Seed: 5, BatchSize: 12, Workers: workers}
			fused, ref := trainPair(t, cfg, nil)
			gotT, gotV, err := fused.TrainWithValidation(x, y, vx, vy, 300, 5)
			if err != nil {
				t.Fatal(err)
			}
			wantT, wantV := refTrainWithValidation(ref, x, y, vx, vy, 300, 5)
			if len(wantT) == 300 {
				t.Fatal("reference never stopped early; the case no longer covers early stopping")
			}
			mustSameLosses(t, "train losses", gotT, wantT)
			mustSameLosses(t, "val losses", gotV, wantV)
			mustSameModel(t, fused, ref)
		})
	}
}

// TestTrainBatchIgnoresIdleShardScratch pins that a minibatch split into
// fewer shards than workers (4 rows over 3 workers is two shards of 2)
// does not sum the gradient an idle worker's scratch kept from an
// earlier, larger batch: the step must equal one taken with fresh
// scratch.
func TestTrainBatchIgnoresIdleShardScratch(t *testing.T) {
	cfg := Config{In: 3, Out: 2, Hidden: []int{5}, Seed: 1, BatchSize: 6, Workers: 3}
	warm, fresh := trainPair(t, cfg, nil)
	x := randomInput(10, 3, 1)
	y := randomInput(10, 2, 2)
	tw, err := warm.newTrainer(x, y)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := fresh.newTrainer(x, y)
	if err != nil {
		t.Fatal(err)
	}
	warm.trainBatch(tw, x.SliceRows(0, 6), y.SliceRows(0, 6), cfg.Adam)
	fresh.trainBatch(tf, x.SliceRows(0, 6), y.SliceRows(0, 6), cfg.Adam)
	// warm reuses its trainer, whose worker 2 still holds the 6-row
	// gradient; fresh takes the 4-row step with new scratch.
	if tf, err = fresh.newTrainer(x, y); err != nil {
		t.Fatal(err)
	}
	warm.trainBatch(tw, x.SliceRows(6, 10), y.SliceRows(6, 10), cfg.Adam)
	fresh.trainBatch(tf, x.SliceRows(6, 10), y.SliceRows(6, 10), cfg.Adam)
	mustSameModel(t, warm, fresh)
}

// TestTrainStepAllocs pins the trainer's steady state: once the run's
// scratch exists, a minibatch step at Workers 1 allocates at most the
// parallel.ForChunked closure.
func TestTrainStepAllocs(t *testing.T) {
	cfg := Config{In: 23, Out: 4, Hidden: []int{48, 32, 16}, Seed: 1, BatchSize: 64, Workers: 1}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := randomInput(64, cfg.In, 1)
	y := randomInput(64, cfg.Out, 2)
	tr, err := net.newTrainer(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() { net.trainBatch(tr, x, y, net.cfg.Adam) }); a > 1 {
		t.Fatalf("train step allocates %.0f times, want <= 1", a)
	}
}

// BenchmarkTrainStep times one minibatch step (forward, backward,
// reduction, Adam) at the perfbench tiny shape: 23→48→32→16→4, batch
// 256.
func BenchmarkTrainStep(b *testing.B) {
	cfg := Config{In: 23, Out: 4, Hidden: []int{48, 32, 16}, Seed: 1, BatchSize: 256}
	net, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	x := randomInput(256, cfg.In, 1)
	y := randomInput(256, cfg.Out, 2)
	tr, err := net.newTrainer(x, y)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.trainBatch(tr, x, y, net.cfg.Adam)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*x.Rows), "ns/row")
}
