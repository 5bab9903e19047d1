package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// The traced run records one span per call the benchmark makes into a
// layer: name, start, end, parent span and request id. Spans stay in
// memory and are written out as NDJSON when the run ends. Spans inside
// the program are out of scope; job stages come from the program's own
// public trace (GET /v1/jobs/{id}).

// span is one recorded call. Times are nanoseconds since the tracer's
// origin; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span and returns its id.
func (t *tracer) add(name string, req, parent int64, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
	return id
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfByName groups span self times, in seconds, by span name. A span's
// self time is its duration minus the part of its interval its child
// spans cover.
func (t *tracer) selfByName() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]int)
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		var iv [][2]int64
		for _, c := range children[s.ID] {
			lo, hi := max(t.spans[c].Start, s.Start), min(t.spans[c].End, s.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, end int64
		for _, x := range iv {
			lo := max(x[0], end)
			if x[1] > lo {
				covered += x[1] - lo
				end = x[1]
			}
		}
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-covered).Seconds())
	}
	return out
}

// write dumps the run description and every span as NDJSON.
func (t *tracer) write(path string, env map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// spanMetric is a per-layer metric read from span self times.
type spanMetric struct {
	name, span string
	q          float64 // quantile of the self times
	scale      float64 // seconds → unit
	unit       string
}

// spanMetrics are the per-layer metrics read off spans. Every span
// name is the function the benchmark called (or, for serve.admit,
// serve.queue_wait, serve.first_batch and serve.service, the job trace
// stages they span).
var spanMetrics = []spanMetric{
	{"scenario.parse_us", "scenario.Parse", 0.5, 1e6, "us"},
	{"scenario.compile_us", "scenario.Compile", 0.5, 1e6, "us"},
	{"scenario.fingerprint_us", "scenario.Fingerprint", 0.5, 1e6, "us"},
	{"serve.predict_hit_us", "serve.Predict/hit", 0.5, 1e6, "us"},
	{"serve.predict_miss_us", "serve.Predict/miss", 0.5, 1e6, "us"},
	{"model.solve_us", "model.solve", 0.5, 1e6, "us"},
	{"serve.encode_us", "serve.encode", 0.5, 1e6, "us"},
	{"serve.submit_us", "serve.submit", 0.5, 1e6, "us"},
	{"serve.admit_us", "serve.admit", 0.5, 1e6, "us"},
	{"serve.queue_wait_ms", "serve.queue_wait", 0.5, 1e3, "ms"},
	{"serve.queue_wait_p95_ms", "serve.queue_wait", 0.95, 1e3, "ms"},
	{"serve.service_ms", "serve.service", 0.5, 1e3, "ms"},
	{"serve.first_batch_ms", "serve.first_batch", 0.5, 1e3, "ms"},
	{"sim.rep_ms", "sim.RunOnce", 0.5, 1e3, "ms"},
	{"mac.rep_ms", "mac.RunOnce", 0.5, 1e3, "ms"},
	{"scenario.summarize_us", "scenario.SummarizePoint", 0.5, 1e6, "us"},
	{"scenario.render_us", "scenario.Report.Write", 0.5, 1e6, "us"},
	{"campaign.compile_us", "campaign.Compile", 0.5, 1e6, "us"},
	{"campaign.point_ms", "campaign.point", 0.5, 1e3, "ms"},
}

// phaseMetrics are the per-layer metrics a workload runner sets in
// phase.layers, with their units. A workload that bypasses a layer
// reports it as 0.
var phaseMetrics = map[string]string{
	"serve.http_overhead_us":      "us",
	"serve.cache_hit_ratio":       "ratio",
	"gen.hot_share":               "ratio",
	"serve.result_bytes":          "bytes",
	"serve.coalesced":             "count",
	"serve.rejected":              "count",
	"sim.us_per_ns":               "us/ns",
	"mac.us_per_ns":               "us/ns",
	"campaign.reps":               "count",
	"campaign.points_unconverged": "count",
	"par.busy_share":              "ratio",
	"jobs.late_p99_ms":            "ms",
}

// layerMetrics assembles the per-layer metrics of a traced phase; the
// allocation figures come from the untraced phase base.
func layerMetrics(ph, base *phase, tr *tracer) map[string]metric {
	out := make(map[string]metric)
	self := tr.selfByName()
	for _, m := range spanMetrics {
		out[m.name] = metric{quantile(sortedCopy(self[m.span]), m.q) * m.scale, m.unit}
	}
	for name, unit := range phaseMetrics {
		out[name] = metric{ph.layers[name].Value, unit}
	}
	out["runtime.alloc_kb_per_op"] = metric{base.allocKBPerOp, "KiB"}
	out["runtime.gc_per_kop"] = metric{base.gcPerKop, "count"}
	return out
}
