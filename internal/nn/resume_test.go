package nn

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math"
	"testing"
)

// gobRoundTrip encodes and re-decodes a TrainState, as the checkpoint
// layer does on disk.
func gobRoundTrip(t *testing.T, ts *TrainState) *TrainState {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ts); err != nil {
		t.Fatalf("encoding train state: %v", err)
	}
	var out TrainState
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("decoding train state: %v", err)
	}
	return &out
}

// resumeCfg pins Workers: the fixed-order gradient reduction makes
// training deterministic only for a fixed worker count, so the
// determinism proofs must not float with the machine.
func resumeCfg() Config {
	return Config{
		In: 2, Out: 1, Hidden: []int{12, 6},
		Seed: 41, BatchSize: 16, Workers: 2,
		LRDecayEvery: 4, LRDecayFactor: 0.5,
	}
}

// resumeData builds a deterministic regression set (no RNG involved).
func resumeData(rows int) (*Matrix, *Matrix) {
	x := NewMatrix(rows, 2)
	y := NewMatrix(rows, 1)
	for i := 0; i < rows; i++ {
		a := float64(i%13)/6.0 - 1.0
		b := float64(i%7)/3.0 - 1.0
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y.Set(i, 0, math.Sin(2*a)+0.5*b*b)
	}
	return x, y
}

// mustEqualState asserts two train states are bit-identical in every
// field that determinism covers: weights, biases, optimizer moments and
// step counts, loss history, and the shuffle-generator position.
func mustEqualState(t *testing.T, got, want *TrainState) {
	t.Helper()
	if got.Shuffle != want.Shuffle {
		t.Fatalf("shuffle state %d != %d", got.Shuffle, want.Shuffle)
	}
	if len(got.Losses) != len(want.Losses) {
		t.Fatalf("loss history length %d != %d", len(got.Losses), len(want.Losses))
	}
	for i := range want.Losses {
		if math.Float64bits(got.Losses[i]) != math.Float64bits(want.Losses[i]) {
			t.Fatalf("loss[%d] = %v != %v", i, got.Losses[i], want.Losses[i])
		}
	}
	eq2 := func(name string, a, b [][]float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s layer count %d != %d", name, len(a), len(b))
		}
		for i := range b {
			for j := range b[i] {
				if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
					t.Fatalf("%s[%d][%d] = %v != %v (not bit-identical)", name, i, j, a[i][j], b[i][j])
				}
			}
		}
	}
	eq2("weights", got.Weights, want.Weights)
	eq2("biases", got.Biases, want.Biases)
	eq2("adam.wm", got.AdamWM, want.AdamWM)
	eq2("adam.wv", got.AdamWV, want.AdamWV)
	eq2("adam.bm", got.AdamBM, want.AdamBM)
	eq2("adam.bv", got.AdamBV, want.AdamBV)
	for i := range want.AdamWT {
		if got.AdamWT[i] != want.AdamWT[i] || got.AdamBT[i] != want.AdamBT[i] {
			t.Fatalf("adam step counts differ at layer %d", i)
		}
	}
}

// TestResumeBitIdenticalTrainEpochs is the core determinism proof:
// train N epochs straight through, versus train k epochs, capture,
// Resume into a fresh network, train the remaining N−k — the final
// states must match bit for bit (weights, Adam moments, losses, RNG).
func TestResumeBitIdenticalTrainEpochs(t *testing.T) {
	const total, k = 10, 4
	x, y := resumeData(120)

	full, err := New(resumeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.TrainEpochs(x, y, total); err != nil {
		t.Fatal(err)
	}
	want := full.CaptureTrainState()

	split, err := New(resumeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := split.TrainEpochs(x, y, k); err != nil {
		t.Fatal(err)
	}
	mid := split.CaptureTrainState()
	if mid.Epoch() != k {
		t.Fatalf("mid-capture epoch = %d, want %d", mid.Epoch(), k)
	}

	resumed, err := Resume(mid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.TrainEpochs(x, y, total-k); err != nil {
		t.Fatal(err)
	}
	mustEqualState(t, resumed.CaptureTrainState(), want)
}

// TestResumeSurvivesSerialization resumes from a state that made a gob
// round trip through the checkpoint layer's encoding, not just an
// in-memory pointer — proving the serialized form is complete.
func TestResumeSurvivesSerialization(t *testing.T) {
	const total, k = 8, 3
	x, y := resumeData(90)

	full, err := New(resumeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.TrainEpochs(x, y, total); err != nil {
		t.Fatal(err)
	}
	want := full.CaptureTrainState()

	split, err := New(resumeCfg())
	if err != nil {
		t.Fatal(err)
	}
	var captured *TrainState
	_, err = split.TrainEpochsOpts(x, y, k, RunOptions{
		CheckpointEvery: k,
		Checkpoint:      func(ts *TrainState) error { captured = ts; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if captured == nil || captured.Epoch() != k {
		t.Fatalf("expected a checkpoint at epoch %d, got %+v", k, captured)
	}
	restored := gobRoundTrip(t, captured)
	resumed, err := Resume(restored)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.TrainEpochs(x, y, total-k); err != nil {
		t.Fatal(err)
	}
	mustEqualState(t, resumed.CaptureTrainState(), want)
}

// TestResumeBitIdenticalWithValidation proves the same for the
// early-stopping path: the checkpointed ValState (best loss, patience
// counter, best weights, histories) resumes exactly.
func TestResumeBitIdenticalWithValidation(t *testing.T) {
	const total, k, patience = 9, 4, 50
	x, y := resumeData(120)
	vx, vy := resumeData(30)

	full, err := New(resumeCfg())
	if err != nil {
		t.Fatal(err)
	}
	fullTL, fullVL, err := full.TrainWithValidation(x, y, vx, vy, total, patience)
	if err != nil {
		t.Fatal(err)
	}
	want := full.CaptureTrainState()

	split, err := New(resumeCfg())
	if err != nil {
		t.Fatal(err)
	}
	var captured *TrainState
	_, _, err = split.TrainWithValidationOpts(x, y, vx, vy, k, patience, RunOptions{
		CheckpointEvery: k,
		Checkpoint:      func(ts *TrainState) error { captured = ts; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if captured == nil || captured.Epoch() != k || captured.Val == nil {
		t.Fatalf("expected a validation checkpoint at epoch %d, got %+v", k, captured)
	}

	// NOTE: the split run's TrainWithValidationOpts call above ran to its
	// own completion (k epochs) and restored best weights; resume from
	// the *checkpoint*, which predates that restore — exactly what a
	// crashed process would load.
	restored := gobRoundTrip(t, captured)
	resumed, err := Resume(restored)
	if err != nil {
		t.Fatal(err)
	}
	gotTL, gotVL, err := resumed.TrainWithValidationOpts(x, y, vx, vy, total-k, patience, RunOptions{
		ResumeVal: restored.Val,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualState(t, resumed.CaptureTrainState(), want)
	if len(gotTL) != len(fullTL) || len(gotVL) != len(fullVL) {
		t.Fatalf("history lengths (%d,%d) != (%d,%d)", len(gotTL), len(gotVL), len(fullTL), len(fullVL))
	}
	for i := range fullTL {
		if gotTL[i] != fullTL[i] || gotVL[i] != fullVL[i] {
			t.Fatalf("histories diverge at epoch %d: (%v,%v) != (%v,%v)",
				i, gotTL[i], gotVL[i], fullTL[i], fullVL[i])
		}
	}
}

// TestCancellationWritesFinalCheckpoint: a cancelled context stops the
// run at the next epoch boundary with ErrStopped, after pushing a final
// checkpoint through the sink.
func TestCancellationWritesFinalCheckpoint(t *testing.T) {
	x, y := resumeData(60)
	n, err := New(resumeCfg())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var checkpoints []*TrainState
	sink := func(ts *TrainState) error {
		checkpoints = append(checkpoints, ts)
		if len(ts.Losses) >= 3 {
			cancel()
		}
		return nil
	}
	_, err = n.TrainEpochsOpts(x, y, 100, RunOptions{
		Ctx: ctx, Checkpoint: sink, CheckpointEvery: 1,
	})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("cancelled run returned %v, want ErrStopped", err)
	}
	if len(checkpoints) < 2 {
		t.Fatalf("expected periodic + final checkpoints, got %d", len(checkpoints))
	}
	last := checkpoints[len(checkpoints)-1]
	if last.Epoch() != 3 {
		t.Fatalf("final checkpoint at epoch %d, want 3", last.Epoch())
	}
	// The final (cancellation) checkpoint equals the last periodic one:
	// no partial epoch is ever captured.
	mustEqualState(t, last, checkpoints[len(checkpoints)-2])
}

// TestCheckpointErrorAbortsRun: a failing sink aborts training with the
// sink's error in the chain.
func TestCheckpointErrorAbortsRun(t *testing.T) {
	x, y := resumeData(60)
	n, err := New(resumeCfg())
	if err != nil {
		t.Fatal(err)
	}
	sinkErr := errors.New("disk full")
	_, err = n.TrainEpochsOpts(x, y, 10, RunOptions{
		Checkpoint:      func(*TrainState) error { return sinkErr },
		CheckpointEvery: 2,
	})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("run with failing sink returned %v, want wrapped sink error", err)
	}
	if got := len(n.Losses); got != 2 {
		t.Fatalf("run stopped after %d epochs, want 2 (first checkpoint)", got)
	}
}

// TestResumeValidation exercises the shape checks.
func TestResumeValidation(t *testing.T) {
	x, y := resumeData(40)
	n, err := New(resumeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.TrainEpochs(x, y, 1); err != nil {
		t.Fatal(err)
	}
	ok := n.CaptureTrainState()

	bad := *ok
	bad.Version = 99
	if _, err := Resume(&bad); err == nil {
		t.Error("Resume accepted unknown version")
	}
	bad = *ok
	bad.Weights = bad.Weights[:1]
	if _, err := Resume(&bad); err == nil {
		t.Error("Resume accepted missing layers")
	}
	bad = *ok
	bad.AdamWM = append([][]float64{}, bad.AdamWM...)
	bad.AdamWM[0] = bad.AdamWM[0][:1]
	if _, err := Resume(&bad); err == nil {
		t.Error("Resume accepted optimizer shape mismatch")
	}
}
