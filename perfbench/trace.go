package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the benchmark's spans in memory: one span around every
// call the benchmark makes into a program layer. Nothing inside the
// program is instrumented; a span's time is the layer call as seen by
// its caller. A nil or disabled tracer records nothing, so the untraced
// run pays one nil check per call.
type tracer struct {
	epoch time.Time
	runID string
	next  atomic.Int64

	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span. Attrs carry the counts measured at the
// same boundary (points, bytes, rows, voxels, ...).
type spanRec struct {
	ID, Parent int64
	Run        string
	Name       string
	Start, End time.Duration // since the tracer epoch
	Attrs      map[string]float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setRun labels the spans started from now on (one run id per workload
// execution).
func (t *tracer) setRun(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.runID = id
	t.mu.Unlock()
}

// span is an open span. Methods on a nil span are no-ops.
type span struct {
	t      *tracer
	id     int64
	parent int64
	run    string
	name   string
	start  time.Time
	attrs  map[string]float64
}

// start opens a span named name under parent (nil for a root span).
func (t *tracer) start(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	s := &span{t: t, id: t.next.Add(1), name: name, start: time.Now()}
	if parent != nil {
		s.parent = parent.id
	}
	t.mu.Lock()
	s.run = t.runID
	t.mu.Unlock()
	return s
}

// set attaches a numeric attribute.
func (s *span) set(key string, v float64) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]float64, 4)
	}
	s.attrs[key] = v
}

// end closes the span and stores it.
func (s *span) end() {
	if s == nil {
		return
	}
	end := time.Now()
	t := s.t
	rec := spanRec{
		ID: s.id, Parent: s.parent, Run: s.run, Name: s.name,
		Start: s.start.Sub(t.epoch), End: end.Sub(t.epoch), Attrs: s.attrs,
	}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// snapshot returns the finished spans of one run ("" = all runs).
func (t *tracer) snapshot(run string) []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []spanRec
	for _, s := range t.spans {
		if run == "" || s.Run == run {
			out = append(out, s)
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as Chrome trace-event JSON. Spans are
// laid out one track per root span so nested calls stack visually.
func writeChrome(w io.Writer, spans []spanRec, header map[string]any) error {
	root := make(map[int64]int64, len(spans))
	parent := make(map[int64]int64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	var rootOf func(id int64) int64
	rootOf = func(id int64) int64 {
		if r, ok := root[id]; ok {
			return r
		}
		p, ok := parent[id]
		r := id
		if ok && p != 0 {
			r = rootOf(p)
		}
		root[id] = r
		return r
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"span_id": s.ID, "parent_id": s.Parent, "run_id": s.Run}
		for k, v := range s.Attrs {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: rootOf(s.ID),
			TS:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: args,
		})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       header,
	})
}

// writeChromeFile writes the trace to path.
func writeChromeFile(path string, spans []spanRec, header map[string]any) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return writeChrome(f, spans, header)
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// layerTable aggregates spans by name: call count, total time, and self
// time — each span's duration minus the part of it covered by its
// child spans (overlapping children are merged first).
func layerTable(spans []spanRec) []layerRow {
	children := make(map[int64][][2]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		d := s.End - s.Start
		r.Total += d
		r.Self += d - covered(s.Start, s.End, children[s.ID])
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// printLayerTable writes the per-layer table.
func printLayerTable(w io.Writer, title string, rows []layerRow) {
	var b strings.Builder
	fmt.Fprintf(&b, "\nper-layer spans: %s\n%-28s %7s %12s %12s\n", title, "layer call", "count", "total ms", "self ms")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %7d %12.3f %12.3f\n", r.Name, r.Count, ms(r.Total), ms(r.Self))
	}
	logf(w, "%s", b.String())
}
