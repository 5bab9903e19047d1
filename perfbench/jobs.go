package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
)

const (
	// jobsRate is the open loop's arrival rate in jobs per second,
	// somewhat under half the closed-loop capacity of the reference
	// host for this spec mix (about 33 jobs/s), so queueing shows
	// without a growing backlog, and a host slowed by its neighbours
	// does not push the queue towards saturation.
	jobsRate = 12
	// jobsLateLimit marks a run invalid: the generator fell behind its
	// schedule by more than this.
	jobsLateLimit = 500 * time.Millisecond
	// jobsDrainLimit bounds the wait for the last jobs to finish.
	jobsDrainLimit = 2 * time.Minute
)

var jobCounters = []string{
	"plcsrv_submissions_total", "plcsrv_cache_hits_total", "plcsrv_coalesced_total",
	"plcsrv_rejected_total", "plcsrv_jobs_finished_total",
}

// jobSub is one open-loop submission.
type jobSub struct {
	req    JobReq
	due    time.Time
	late   time.Duration
	submit time.Duration
	status int
	resp   serve.SubmitResponse
	root   int64 // traced run: the submission's span
}

// runJobs is the jobs workload: one goroutine submits POST /v1/jobs at
// a fixed rate to a server with a journal and a disk cache, the
// crash-safe deployment. A job's latency runs from its due time to the
// terminal stage of its own trace.
func runJobs(b *bench, dur time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{opName: "job", tailQ: 0.95, layers: map[string]metric{}}
	d, setups, err := setupDaemons(func() (serve.Config, error) {
		dir, err := os.MkdirTemp(b.scratch, "jobs-")
		return serve.Config{JournalDir: filepath.Join(dir, "journal"), CacheDir: filepath.Join(dir, "cache")}, err
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()
	ph.setup = setups
	before, err := d.counters(jobCounters...)
	if err != nil {
		return nil, err
	}
	mem0 := measureMem()

	subs := make([]jobSub, max(1, int(dur.Seconds()*jobsRate)))
	interval := time.Second / jobsRate
	start := time.Now().Add(10 * time.Millisecond)
	for k := range subs {
		s := &subs[k]
		s.req = b.gen.JobRequest(k)
		s.due = start.Add(time.Duration(k) * interval)
		time.Sleep(time.Until(s.due))
		t0 := time.Now()
		s.late = t0.Sub(s.due)
		s.status, err = d.postJSON("/v1/jobs", s.req.Body, &s.resp)
		t1 := time.Now()
		s.submit = t1.Sub(t0)
		if err != nil {
			s.status = 0
		}
		if tr != nil {
			s.root = tr.add("serve.submit", int64(k), 0, t0, t1)
		}
	}

	// Wait for every accepted job to reach a terminal state.
	statuses := make(map[string]serve.Status)
	var pending []string
	for _, s := range subs {
		if accepted(s.status) {
			if _, ok := statuses[s.resp.ID]; !ok {
				statuses[s.resp.ID] = serve.Status{}
				pending = append(pending, s.resp.ID)
			}
		}
	}
	drainBy := time.Now().Add(jobsDrainLimit)
	for len(pending) > 0 {
		var still []string
		for _, id := range pending {
			var st serve.Status
			if code, err := d.getJSON("/v1/jobs/"+id, &st); err != nil || code != http.StatusOK {
				return nil, fmt.Errorf("GET /v1/jobs/%s: status %d, %v", id, code, err)
			}
			if st.State.Terminal() {
				statuses[id] = st
			} else {
				still = append(still, id)
			}
		}
		pending = still
		if len(pending) > 0 {
			if time.Now().After(drainBy) {
				return nil, fmt.Errorf("%d jobs unfinished after %v", len(pending), jobsDrainLimit)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	ph.endMem(mem0, int64(len(subs)))
	ph.rssMB = peakRSSMB()
	after, err := d.counters(jobCounters...)
	if err != nil {
		return nil, err
	}

	var acc, cached, coalesced, rejected, done int64
	var lastEnd time.Time
	var lates []float64
	for _, s := range subs {
		ph.attempted++
		lates = append(lates, ms(s.late))
		switch {
		case s.status == http.StatusServiceUnavailable:
			rejected++
			ph.failed++
			continue
		case !accepted(s.status):
			ph.failed++
			continue
		}
		acc++
		if s.resp.Cached {
			cached++
		}
		if s.resp.Coalesced {
			coalesced++
		}
		st := statuses[s.resp.ID]
		if st.State != serve.StateDone || len(st.Trace) == 0 {
			ph.failed++
			continue
		}
		end := st.Trace[len(st.Trace)-1]
		done++
		ph.lat = append(ph.lat, ms(end.At.Sub(s.due)))
		if end.At.After(lastEnd) {
			lastEnd = end.At
		}
	}
	ph.throughput = float64(done) / lastEnd.Sub(start).Seconds()
	counterCheck(ph, before, after, map[string]int64{
		"plcsrv_submissions_total":   acc,
		"plcsrv_cache_hits_total":    cached,
		"plcsrv_coalesced_total":     coalesced,
		"plcsrv_rejected_total":      rejected,
		"plcsrv_jobs_finished_total": acc - cached - coalesced,
	})
	sortedLate := sortedCopy(lates)
	if worst := sortedLate[len(sortedLate)-1]; worst > ms(jobsLateLimit) {
		ph.problem("open-loop generator fell behind: %.1f ms late (limit %v)", worst, jobsLateLimit)
	}

	var wrong int64
	if tr != nil {
		wrong = replayJobs(d, subs, statuses, tr, ph)
	} else {
		wrong = verifyJobs(d, subs)
	}
	ph.failed += wrong

	var hot int64
	for _, s := range subs {
		if s.req.Hot {
			hot++
		}
	}
	subsDelta := after["plcsrv_submissions_total"] - before["plcsrv_submissions_total"]
	hitRatio := (after["plcsrv_cache_hits_total"] - before["plcsrv_cache_hits_total"]) / subsDelta
	hotShare := float64(hot) / float64(len(subs))
	sorted := sortedCopy(ph.lat)
	ph.note("job_p50_ms %.6g ms (n=%d, %d beyond)", quantile(sorted, 0.5), len(sorted), beyond(len(sorted), 0.5))
	ph.note("job_p95_ms %.6g ms (n=%d, %d beyond)", quantile(sorted, 0.95), len(sorted), beyond(len(sorted), 0.95))
	ph.note("open loop %d jobs/s: generator late p50 %.3f ms, p99 %.3f ms, max %.3f ms",
		jobsRate, quantile(sortedLate, 0.5), quantile(sortedLate, 0.99), sortedLate[len(sortedLate)-1])
	ph.note("serve.cache_hit_ratio %.4f (plcsrv_cache_hits_total / plcsrv_submissions_total over %g submissions); generator hot share %.4f",
		hitRatio, subsDelta, hotShare)
	ph.note("cached %d, coalesced %d, rejected %d, ran %d", cached, coalesced, rejected, acc-cached-coalesced)
	ph.note("verified %d job results, %d wrong", len(statuses), wrong)
	ph.layers["serve.cache_hit_ratio"] = metric{hitRatio, "ratio"}
	ph.layers["gen.hot_share"] = metric{hotShare, "ratio"}
	ph.layers["serve.coalesced"] = metric{after["plcsrv_coalesced_total"] - before["plcsrv_coalesced_total"], "count"}
	ph.layers["serve.rejected"] = metric{after["plcsrv_rejected_total"] - before["plcsrv_rejected_total"], "count"}
	ph.layers["jobs.late_p99_ms"] = metric{quantile(sortedLate, 0.99), "ms"}
	return ph, nil
}

func accepted(status int) bool { return status == http.StatusOK || status == http.StatusAccepted }

// postJSON posts body and decodes a 2xx JSON answer into out.
func (d *daemon) postJSON(path string, body []byte, out any) (int, error) {
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 {
		err = json.Unmarshal(data, out)
	}
	return resp.StatusCode, err
}

// getJSON GETs path and decodes a 200 JSON answer into out.
func (d *daemon) getJSON(path string, out any) (int, error) {
	data, code, err := d.get(path)
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(data, out)
	}
	return code, err
}

func (d *daemon) get(path string) ([]byte, int, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// resultText fetches a job's ?format=text result.
func (d *daemon) resultText(id string) (string, error) {
	data, code, err := d.get("/v1/jobs/" + id + "/result?format=text")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET result of %s: status %d", id, code)
	}
	return string(data), err
}

// verifyJobs checks every accepted job's text result against
// (*scenario.Report).Write of scenario.Replications on the same spec
// and reps — serve ≡ CLI — computing each distinct study once. It
// returns the number of mismatching jobs.
func verifyJobs(d *daemon, subs []jobSub) int64 {
	want := make(map[string]string) // study key → reference text
	seen := make(map[string]bool)   // job ids already checked
	var wrong int64
	for _, s := range subs {
		if !accepted(s.status) || seen[s.resp.ID] {
			continue
		}
		seen[s.resp.ID] = true
		ref, ok := want[s.resp.Key]
		if !ok {
			var err error
			if ref, err = jobReference(s.req.Spec); err != nil {
				ref = "error: " + err.Error()
			}
			want[s.resp.Key] = ref
		}
		if got, err := d.resultText(s.resp.ID); err != nil || got != ref {
			wrong++
		}
	}
	return wrong
}

func jobReference(specJSON []byte) (string, error) {
	spec, err := scenario.Parse(specJSON)
	if err != nil {
		return "", err
	}
	compiled, err := scenario.Compile(spec)
	if err != nil {
		return "", err
	}
	rep, err := scenario.Replications(compiled, jobReps, loadGoroutines)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	err = rep.Write(&buf)
	return buf.String(), err
}

// replayJobs is the traced run's second half. It turns each job's
// public trace into stage spans, then feeds every distinct study that
// ran to the layer functions in the order a job calls them — Parse,
// Compile, Fingerprint, one RunOnce per replication, SummarizePoint,
// Report.Write and the result encoding — and checks the rendered text
// against the served result. It returns the number of mismatches.
func replayJobs(d *daemon, subs []jobSub, statuses map[string]serve.Status, tr *tracer, ph *phase) int64 {
	var wrong int64
	var runNS, serviceNS float64
	perNS := map[string][]float64{}
	var resultBytes []float64
	seen := make(map[string]bool)    // job ids already replayed
	texts := make(map[string]string) // study key → replayed text
	for k, s := range subs {
		if !accepted(s.status) || s.resp.Coalesced || seen[s.resp.ID] {
			continue
		}
		seen[s.resp.ID] = true
		rid := int64(k)
		st := statuses[s.resp.ID]
		at := map[string]time.Time{}
		for _, stg := range st.Trace {
			at[stg.Stage] = stg.At
		}
		end := st.Trace[len(st.Trace)-1].At
		if s.resp.Cached {
			tr.add("serve.admit", rid, s.root, at["accepted"], end)
			ref, ok := texts[s.resp.Key]
			if got, err := d.resultText(s.resp.ID); err != nil || !ok || got != ref {
				wrong++
			}
			continue
		}
		tr.add("serve.admit", rid, s.root, at["accepted"], at["queued"])
		tr.add("serve.queue_wait", rid, s.root, at["queued"], at["running"])
		svc := tr.add("serve.service", rid, s.root, at["running"], end)
		if fb, ok := at["first_batch"]; ok {
			tr.add("serve.first_batch", rid, svc, at["running"], fb)
		}

		text, ns, err := replayStudy(tr, rid, s.root, s.req.Spec, perNS, &resultBytes)
		served, gerr := d.resultText(s.resp.ID)
		if err != nil || gerr != nil || text != served {
			wrong++
			continue
		}
		texts[s.resp.Key] = text
		runNS += ns
		serviceNS += float64(end.Sub(at["running"]).Nanoseconds()) * float64(runtime.GOMAXPROCS(0))
	}
	for _, engine := range []string{"sim", "mac"} {
		ph.layers[engine+".us_per_ns"] = metric{median(perNS[engine]), "us/ns"}
	}
	if serviceNS > 0 {
		ph.layers["par.busy_share"] = metric{runNS / serviceNS, "ratio"}
	}
	ph.layers["serve.result_bytes"] = metric{median(resultBytes), "bytes"}
	return wrong
}

// replayStudy runs one single-point study through the layer functions,
// one span per call under parent, and returns its text rendering and
// the summed RunOnce time in ns. perNS collects simulated µs per wall
// ns by engine.
func replayStudy(tr *tracer, rid, parent int64, specJSON []byte, perNS map[string][]float64, resultBytes *[]float64) (string, float64, error) {
	s := time.Now()
	spec, err := scenario.Parse(specJSON)
	e := time.Now()
	tr.add("scenario.Parse", rid, parent, s, e)
	if err != nil {
		return "", 0, err
	}
	s = e
	c, err := scenario.Compile(spec)
	e = time.Now()
	tr.add("scenario.Compile", rid, parent, s, e)
	if err != nil {
		return "", 0, err
	}
	s = e
	key, err := scenario.Fingerprint(spec, jobReps)
	e = time.Now()
	tr.add("scenario.Fingerprint", rid, parent, s, e)
	if err != nil {
		return "", 0, err
	}
	seeds, perRep, controls, ns, err := runReps(tr, rid, parent, c, 0, jobReps, perNS)
	if err != nil {
		return "", 0, err
	}
	s = time.Now()
	pr := scenario.SummarizePoint(c.Points[0].N, seeds, perRep, controls, c.Spec.VarianceReduction)
	e = time.Now()
	tr.add("scenario.SummarizePoint", rid, parent, s, e)
	rep := &scenario.Report{Spec: c.Spec, Reps: jobReps, Points: []scenario.PointReport{pr}}
	var text bytes.Buffer
	s = time.Now()
	err = rep.Write(&text)
	e = time.Now()
	tr.add("scenario.Report.Write", rid, parent, s, e)
	if err != nil {
		return "", 0, err
	}
	s = e
	enc, err := encodeResult(key, rep)
	e = time.Now()
	tr.add("serve.encode", rid, parent, s, e)
	if err != nil {
		return "", 0, err
	}
	*resultBytes = append(*resultBytes, float64(len(enc)))
	return text.String(), ns, nil
}

// runReps runs replications 0..reps-1 of point pi serially, one
// "<engine>.RunOnce" span each, with the seeds the replication path
// derives. It returns the per-replication outputs and their summed
// time in ns.
func runReps(tr *tracer, rid, parent int64, c *scenario.Compiled, pi, reps int, perNS map[string][]float64) ([]uint64, [][]scenario.Metric, [][]float64, float64, error) {
	cv := c.Spec.CVEnabled()
	seeds := make([]uint64, reps)
	perRep := make([][]scenario.Metric, reps)
	var controls [][]float64
	if cv {
		controls = make([][]float64, reps)
	}
	engine := c.Spec.Engine
	var total float64
	for r := 0; r < reps; r++ {
		seeds[r] = scenario.RepSeed(c.Spec.SeedPolicy, c.Spec.Seed, pi, r)
		s := time.Now()
		var err error
		if cv {
			perRep[r], controls[r], err = scenario.RunOnceCV(c.Points[pi], seeds[r])
		} else {
			perRep[r], err = scenario.RunOnce(c.Points[pi], seeds[r])
		}
		e := time.Now()
		if err != nil {
			return nil, nil, nil, 0, err
		}
		tr.add(engine+".RunOnce", rid, parent, s, e)
		ns := float64(e.Sub(s).Nanoseconds())
		total += ns
		perNS[engine] = append(perNS[engine], c.Spec.SimTimeMicros/ns)
	}
	return seeds, perRep, controls, total, nil
}
