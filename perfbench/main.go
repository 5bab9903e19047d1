// Command perfbench is the repository benchmark. It drives one of three
// workloads (predict, jobs, campaign) through the public entry points
// of internal/serve, internal/scenario and internal/campaign, with
// inputs made by a seeded generator, checks every output, and prints
// its figures. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json; with -trace 1 the run is split into an untraced and a
// traced half, and the metrics are the per-layer metrics (span self
// times, counts and ratios) plus the tracing overhead on each
// end-to-end metric. See README.md in this directory.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload predict --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Sizes shared by the workloads.
const (
	// loadGoroutines is the number of load-generating goroutines and
	// connections: one per core of the 2-core reference host.
	loadGoroutines = 2
	// setupRepeats is how many times a run sets its system up; setup_s
	// is the median.
	setupRepeats = 31
)

// buildDir is where run.sh builds the benchmark and where runs keep
// their scratch files and span dumps, relative to the repository root.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload to run: predict, jobs or campaign")
	seed := fl.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := fl.Int("seconds", 15, "measured run length in seconds")
	traceMode := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	writeRef := fl.Bool("write-campaign-ref", false, "recompute perfbench/campaign_ref.json at the current commit and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *writeRef {
		if err := writeCampaignRef(filepath.Join("perfbench", "campaign_ref.json")); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload predict|jobs|campaign, -seconds ≥ 1 and -trace 0|1\n")
		return 2
	}
	if _, err := os.Stat(filepath.Join("internal", "serve")); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the repository root:", err)
		return 2
	}
	scratch, err := os.MkdirTemp(mkdirAll(filepath.Join(buildDir, "tmp")), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	b := &bench{gen: NewGenerator(*seed), scratch: scratch}
	env := stamp(*workload, *seed, *seconds, *traceMode)
	envJSON, _ := json.Marshal(env) // a map of strings always marshals
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	dur := time.Duration(*seconds) * time.Second
	var res result
	if *traceMode == 0 {
		ph, err := w(b, dur, nil)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		ph.print(stdout, "")
		res = newResult(ph, ph.e2e())
	} else {
		base, err := w(b, dur/2, nil)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		tr := newTracer()
		traced, err := w(b, dur/2, tr)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		base.print(stdout, "untraced ")
		traced.print(stdout, "traced ")
		path := filepath.Join(mkdirAll(filepath.Join(buildDir, "trace")), fmt.Sprintf("%s-seed%d.ndjson", *workload, *seed))
		if err := tr.write(path, env); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", tr.len(), path)
		ms := layerMetrics(traced, base, tr)
		baseE2E, tracedE2E := base.e2e(), traced.e2e()
		for name, m := range tracedE2E {
			ms["overhead."+name] = metric{Value: m.Value - baseE2E[name].Value, Unit: m.Unit}
		}
		res = newResult(base, ms)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		res.Correct = res.Correct && traced.ok()
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "metric %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// workloads maps a workload name to its runner. A runner runs one
// measured phase of the given length; tr is nil for an untraced phase.
var workloads = map[string]func(b *bench, dur time.Duration, tr *tracer) (*phase, error){
	"predict":  runPredict,
	"jobs":     runJobs,
	"campaign": runCampaign,
}

// bench is the state the workload runners share.
type bench struct {
	gen *Generator
	// scratch is the run's private directory under buildDir, removed
	// at exit.
	scratch string
}

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // a failure shows up at first use
	return dir
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(ph *phase, ms map[string]metric) result {
	return result{Correct: ph.ok(), Attempted: ph.attempted, Failed: ph.failed, Metrics: ms}
}

// phase is what one measured phase of a workload yields.
type phase struct {
	// setup holds one set-up time per repeat, in seconds.
	setup []float64
	// lat holds the latency of every measured operation in ms; tailQ
	// is the tail percentile reported for it, taken over tailLat when
	// the workload sets it (campaign: grid point completion times).
	lat, tailLat []float64
	tailQ        float64
	// opName names an operation in the printed report ("request").
	opName string
	// throughput is operations completed per second.
	throughput float64
	// rssMB is the process's peak resident set at the end of the
	// measured phase.
	rssMB float64
	// attempted counts operations; failed counts failed, refused and
	// shed operations and wrong outputs.
	attempted, failed int64
	// problems are counter disagreements and invalid-run findings;
	// any one makes the run incorrect.
	problems []string
	// notes are extra printed lines (the issue-named figures).
	notes []string
	// layers holds per-layer figures that do not come from spans.
	layers map[string]metric
	// allocKBPerOp and gcPerKop are the runtime.MemStats TotalAlloc and
	// NumGC deltas over the measured phase, per operation.
	allocKBPerOp, gcPerKop float64
}

func (ph *phase) ok() bool { return ph.failed == 0 && len(ph.problems) == 0 }

func (ph *phase) problem(format string, args ...any) {
	ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
}

func (ph *phase) note(format string, args ...any) {
	ph.notes = append(ph.notes, fmt.Sprintf(format, args...))
}

// tail returns the sorted samples the tail percentile is taken over.
func (ph *phase) tail() []float64 {
	if ph.tailLat != nil {
		return sortedCopy(ph.tailLat)
	}
	return sortedCopy(ph.lat)
}

// e2e returns the end-to-end metrics of BENCHMARK.json.
func (ph *phase) e2e() map[string]metric {
	return map[string]metric{
		"setup_s":          {median(ph.setup), "s"},
		"latency_p50_ms":   {median(ph.lat), "ms"},
		"latency_tail_ms":  {quantile(ph.tail(), ph.tailQ), "ms"},
		"throughput_per_s": {ph.throughput, "1/s"},
		"rss_peak_mb":      {ph.rssMB, "MiB"},
	}
}

// print writes the phase's human-readable report.
func (ph *phase) print(w io.Writer, prefix string) {
	n, tail := len(ph.lat), ph.tail()
	fmt.Fprintf(w, "%sresult %s latency: n=%d p50=%.4g ms (%d beyond); tail n=%d p%g=%.4g ms (%d beyond)\n",
		prefix, ph.opName, n, median(ph.lat), beyond(n, 0.5),
		len(tail), ph.tailQ*100, quantile(tail, ph.tailQ), beyond(len(tail), ph.tailQ))
	errRate := 0.0
	if ph.attempted > 0 {
		errRate = float64(ph.failed) / float64(ph.attempted)
	}
	fmt.Fprintf(w, "%sresult error_rate %.6g (failed %d of %d attempted)\n", prefix, errRate, ph.failed, ph.attempted)
	fmt.Fprintf(w, "%sresult setup_s median %.6g s over %d set-ups\n", prefix, median(ph.setup), len(ph.setup))
	for _, s := range ph.notes {
		fmt.Fprintf(w, "%sresult %s\n", prefix, s)
	}
	for _, s := range ph.problems {
		fmt.Fprintf(w, "%sPROBLEM %s\n", prefix, s)
	}
	if b := beyond(len(tail), ph.tailQ); b < 10 {
		fmt.Fprintf(w, "%sWARNING only %d samples beyond p%g\n", prefix, b, ph.tailQ*100)
	}
}

// measureMem snapshots MemStats for a phase's allocation figures.
func measureMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// endMem records the MemStats deltas since start per operation.
func (ph *phase) endMem(start runtime.MemStats, ops int64) {
	if ops == 0 {
		return
	}
	end := measureMem()
	ph.allocKBPerOp = float64(end.TotalAlloc-start.TotalAlloc) / 1024 / float64(ops)
	ph.gcPerKop = float64(end.NumGC-start.NumGC) * 1000 / float64(ops)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// stamp describes the run: code, toolchain, host and inputs.
func stamp(workload string, seed uint64, seconds, trace int) map[string]string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	return map[string]string{
		"commit":        commit,
		"source_sha256": sourceDigest(),
		"go_version":    runtime.Version(),
		"gomaxprocs":    strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":         strconv.Itoa(runtime.NumCPU()),
		"cpu_model":     cpuModel(),
		"workload":      workload,
		"seed":          strconv.FormatUint(seed, 10),
		"seconds":       strconv.Itoa(seconds),
		"trace":         strconv.Itoa(trace),
	}
}

// sourceDigest hashes go.mod and every Go file under cmd/ and
// internal/, so a run identifies the code it measured even in a
// checkout without version-control metadata.
func sourceDigest() string {
	h := sha256.New()
	files := []string{"go.mod"}
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
