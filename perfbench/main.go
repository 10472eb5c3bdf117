// Command perfbench is fillvoid's end-to-end benchmark. It runs one
// named workload against the program's public functions for a fixed
// time, checks the outputs, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload recon --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics taken from spans the
// benchmark records around its own calls into each layer, writes those
// spans as Chrome trace-event JSON, and prints a per-layer table to
// standard error. See README.md for the workloads and every metric.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"fillvoid/internal/datasets"
)

// env is what one workload execution gets: its seed, sizes, tracer
// (nil when untraced), a fresh temp dir and a log for diagnostics.
type env struct {
	seed int64
	z    sizes
	tr   *tracer
	tmp  string
	log  io.Writer
}

// outcome is what one workload execution measured.
type outcome struct {
	// e2e holds the end-to-end metric values by name.
	e2e map[string]float64
	// samples holds the sample count behind each timing metric.
	samples map[string]int
	// attempted and failed count the workload's operations.
	attempted, failed int
}

// checkError is an output check that failed. It is reported, never
// counted as a metric.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "output check failed: " + e.msg }

// logf writes a diagnostic to standard error (or the test's buffer).
func logf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...) //lint:allow errdrop: diagnostics are best effort; the result line is checked
}

func checkf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// workload is one named benchmark input; README.md says why each is
// there.
type workload struct {
	name string
	// run sets up setups times (the last set-up is kept), then measures
	// for seconds.
	run func(ctx context.Context, e *env, seconds float64, setups int) (*outcome, error)
}

func workloads() []workload {
	return []workload{{"insitu", runInsitu}, {"recon", runRecon}, {"serve", runServe}, {"cluster", runCluster}}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload with --trace 0.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"pretrain_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"goodput_rps", "1/s"},
	{"snr_db", "dB"},
	{"alloc_mb", "MB"},
	{"heap_peak_mb", "MB"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	return runSized(args, stdout, stderr, fullSizes)
}

// runSized is run at the given sizes (the tests use toy sizes).
func runSized(args []string, stdout, stderr io.Writer, z sizes) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload: insitu, recon, serve or cluster")
	seed := fset.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fset.Float64("seconds", 15, "measured seconds")
	traceOn := fset.Int("trace", 0, "1: traced run reporting per-layer metrics")
	root := fset.String("root", ".", "checkout root: source hash, temp dirs and trace files live under it")
	traceOut := fset.String("trace-out", "", "Chrome trace file (default <root>/.bench_build/trace-<workload>-<seed>.json)")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		if err == nil {
			err = errors.New("need --seconds > 0 and --trace 0 or 1")
		}
		logf(stderr, "perfbench: %v\n", err)
		return 2
	}
	tmp, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-")
	if err != nil {
		if err = os.MkdirAll(filepath.Join(*root, ".bench_build"), 0o755); err == nil {
			tmp, err = os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-")
		}
		if err != nil {
			logf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	defer os.RemoveAll(tmp)

	header := runHeader(*root, w.name, *seed, *seconds, *traceOn, z)
	if err := json.NewEncoder(stdout).Encode(map[string]any{"header": header}); err != nil {
		logf(stderr, "perfbench: %v\n", err)
		return 1
	}
	e := &env{seed: *seed, z: z, tmp: tmp, log: stderr}
	ctx := context.Background()
	var res resultLine
	if *traceOn == 1 {
		out := *traceOut
		if out == "" {
			out = filepath.Join(*root, ".bench_build", fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
		}
		res, err = tracedRun(ctx, e, w, *seconds, out, header)
	} else {
		res, err = untracedRun(ctx, e, w, *seconds, z.Setups, stdout)
	}
	if err != nil {
		logf(stderr, "perfbench: %v\n", err)
		res.Correct = false
		res.Metrics = map[string]metricOut{}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if encErr := json.NewEncoder(stdout).Encode(res); encErr != nil {
		logf(stderr, "perfbench: %v\n", encErr)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// untracedRun measures the end-to-end metrics with tracing off.
func untracedRun(ctx context.Context, e *env, w workload, seconds float64, setups int, stdout io.Writer) (resultLine, error) {
	o, err := w.run(ctx, e, seconds, setups)
	if err != nil {
		if o != nil {
			return resultLine{Attempted: o.attempted, Failed: o.failed}, err
		}
		return resultLine{}, err
	}
	if err := json.NewEncoder(stdout).Encode(map[string]any{"samples": o.samples}); err != nil {
		return resultLine{}, err
	}
	res := resultLine{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricOut{}}
	for _, m := range e2eMetrics {
		v, ok := o.e2e[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return resultLine{}, fmt.Errorf("workload %s measured no %s", w.name, m.name)
		}
		res.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
	}
	return res, nil
}

// tracedRun is the per-layer run. It measures the workload untraced
// and then traced for half the time each (their difference is the
// tracing overhead), then gives every other workload a short traced
// sweep so every layer is reached. Per-layer metrics come from the
// traced workload's own spans where it reaches the layer, else from
// the sweep of the workload that exercises it.
func tracedRun(ctx context.Context, e *env, w workload, seconds float64, out string, header map[string]any) (resultLine, error) {
	plain, err := w.run(ctx, e, seconds/2, 1)
	if err != nil {
		return resultLine{}, err
	}
	tr := newTracer()
	te := *e
	te.tr = tr
	mainRun := fmt.Sprintf("%s/seed%d", w.name, e.seed)
	tr.setRun(mainRun)
	traced, err := w.run(ctx, &te, seconds/2, 1)
	if err != nil {
		return resultLine{}, err
	}
	attempted, failed := plain.attempted+traced.attempted, plain.failed+traced.failed
	runs := []string{mainRun}
	for _, other := range workloads() {
		if other.name == w.name {
			continue
		}
		id := other.name + "/sweep"
		tr.setRun(id)
		o, err := other.run(ctx, &te, e.z.SweepSeconds, 1)
		if err != nil {
			return resultLine{}, fmt.Errorf("sweep %s: %w", other.name, err)
		}
		attempted += o.attempted
		failed += o.failed
		runs = append(runs, id)
	}

	logf(e.log, "\ntracing overhead (%s, traced vs untraced, %.1fs each):\n", w.name, seconds/2)
	for _, m := range e2eMetrics {
		a, b := plain.e2e[m.name], traced.e2e[m.name]
		logf(e.log, "  %-16s untraced %12.4f  traced %12.4f  %s  (%+.1f%%)\n", m.name, a, b, m.unit, 100*(b/a-1))
	}

	metrics := map[string]metricOut{}
	for _, run := range runs {
		spans := tr.snapshot(run)
		printLayerTable(e.log, run, layerTable(spans))
		for name, v := range layerMetrics(spans) {
			if _, ok := metrics[name]; !ok {
				metrics[name] = v
			}
		}
	}
	metrics["trace.overhead_pct"] = metricOut{
		Value: 100 * (traced.e2e["latency_p50_ms"]/plain.e2e["latency_p50_ms"] - 1), Unit: "%",
	}
	for _, m := range layerMetricDefs {
		if _, ok := metrics[m.name]; !ok {
			return resultLine{}, fmt.Errorf("traced run measured no %s", m.name)
		}
	}
	if err := writeChromeFile(out, tr.snapshot(""), header); err != nil {
		return resultLine{}, fmt.Errorf("writing trace: %w", err)
	}
	logf(e.log, "\nChrome trace: %s\n", out)
	return resultLine{Correct: true, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// measureSetups runs setup n times and keeps the last result; the
// returned durations are in seconds. Earlier results are released with
// drop.
func measureSetups[T any](n int, setup func() (T, error), drop func(T)) (T, []float64, error) {
	var keep T
	var secs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return keep, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i > 0 {
			drop(keep)
		}
		keep = v
	}
	return keep, secs, nil
}

// runHeader describes the run so results from differing machines,
// toolchains, sources or sizes are never compared silently.
func runHeader(root, workload string, seed int64, seconds float64, traceOn int, z sizes) map[string]any {
	nx, ny, nz := datasets.NewIsabel(0).DefaultDims(z.Div)
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"seconds":       seconds,
		"trace":         traceOn,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit,
		"source_sha256": sourceHash(root),
		"dims":          []int{nx, ny, nz},
		"params":        z,
	}
}

// sourceHash hashes every Go source and module file under root, so two
// results name the exact code they measured even outside a git
// checkout. Hidden directories (the build dir among them) are skipped.
func sourceHash(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "error: " + err.Error()
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "error: " + err.Error()
		}
		rel, _ := filepath.Rel(root, f) //lint:allow errdrop: f was found under root, so Rel cannot fail
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
