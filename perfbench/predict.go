package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
)

const (
	// predictWarmup is the number of untimed requests each client
	// sends before timing starts; they fill the hot set and are still
	// verified.
	predictWarmup = 200
	// predictWindow is the window throughput is counted over; the run
	// reports the median window, which a brief stall of the host moves
	// less than the mean over the whole run.
	predictWindow = time.Second
)

var predictCounters = []string{"plcsrv_predictions_total", "plcsrv_predict_cache_hits_total"}

// runPredict is the predict workload: a closed loop of loadGoroutines
// clients calling POST /v1/predict on an in-process server with
// default config. Half the requests come from a hot pool smaller than
// the result cache; the rest are fresh parameter points.
func runPredict(b *bench, dur time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{opName: "predict request", tailQ: 0.99, layers: map[string]metric{}}
	windows := int(dur / predictWindow)
	d, setups, err := setupDaemons(func() (serve.Config, error) { return serve.Config{}, nil })
	if err != nil {
		return nil, err
	}
	defer d.stop()
	ph.setup = setups
	clients := make([]*predictClient, loadGoroutines)
	for i := range clients {
		clients[i] = &predictClient{id: i, gen: b.gen, d: d, tr: tr, perWindow: make([]int, windows)}
	}
	if tr != nil {
		// The traced run replays every request on a twin server that
		// sees the same request sequence, so Server.Predict is timed
		// without HTTP and splits into hits and misses the same way.
		twin, err := serve.New(serve.Config{})
		if err != nil {
			return nil, err
		}
		defer twin.Close()
		for _, c := range clients {
			c.twin = twin
		}
	}

	runAll(clients, func(c *predictClient) {
		for i := 0; i < predictWarmup; i++ {
			c.one(false)
		}
	})
	before, err := d.counters(predictCounters...)
	if err != nil {
		return nil, err
	}
	mem0 := measureMem()
	start := time.Now()
	deadline := start.Add(dur)
	runAll(clients, func(c *predictClient) {
		c.start = start
		for time.Now().Before(deadline) {
			c.one(true)
		}
	})
	elapsed := time.Since(start)
	after, err := d.counters(predictCounters...)
	if err != nil {
		return nil, err
	}
	ph.rssMB = peakRSSMB()

	var timed, hits, hot int64
	var overhead, resultBytes []float64
	for _, c := range clients {
		for _, l := range c.lat {
			ph.lat = append(ph.lat, float64(l))
		}
		ph.attempted += int64(c.next)
		ph.failed += int64(c.failed + c.wrong)
		timed += int64(len(c.lat))
		hits += int64(c.timedHits)
		hot += int64(c.timedHot)
		overhead = append(overhead, c.overhead...)
		resultBytes = append(resultBytes, c.resultBytes...)
	}
	ph.endMem(mem0, timed)
	rates := make([]float64, windows)
	for i := range rates {
		for _, c := range clients {
			rates[i] += float64(c.perWindow[i]) / predictWindow.Seconds()
		}
	}
	ph.throughput = median(rates)
	if windows == 0 {
		ph.throughput = float64(timed) / elapsed.Seconds()
	}
	counterCheck(ph, before, after, map[string]int64{
		"plcsrv_predictions_total":        timed,
		"plcsrv_predict_cache_hits_total": hits,
	})
	wrong := verifyPredict(b.gen, clients)
	ph.failed += wrong

	preds := after["plcsrv_predictions_total"] - before["plcsrv_predictions_total"]
	hitRatio := (after["plcsrv_predict_cache_hits_total"] - before["plcsrv_predict_cache_hits_total"]) / preds
	hotShare := float64(hot) / float64(timed)
	sorted := sortedCopy(ph.lat)
	ph.note("predict_rps %.6g req/s (median of %d windows of %v; %.6g req/s over the whole %.3f s)",
		ph.throughput, windows, predictWindow, float64(timed)/elapsed.Seconds(), elapsed.Seconds())
	ph.note("predict_p50_us %.6g µs (n=%d, %d beyond)", quantile(sorted, 0.5)*1e3, len(sorted), beyond(len(sorted), 0.5))
	ph.note("predict_p99_us %.6g µs (n=%d, %d beyond)", quantile(sorted, 0.99)*1e3, len(sorted), beyond(len(sorted), 0.99))
	ph.note("serve.cache_hit_ratio %.4f (plcsrv_predict_cache_hits_total / plcsrv_predictions_total over %g predictions); generator hot share %.4f",
		hitRatio, preds, hotShare)
	ph.note("verified %d responses, %d wrong", ph.attempted, wrong)
	ph.layers["serve.cache_hit_ratio"] = metric{hitRatio, "ratio"}
	ph.layers["gen.hot_share"] = metric{hotShare, "ratio"}
	if tr != nil {
		ph.layers["serve.http_overhead_us"] = metric{median(overhead), "us"}
		ph.layers["serve.result_bytes"] = metric{median(resultBytes), "bytes"}
	}
	return ph, nil
}

// runAll runs fn once per client, each on its own goroutine, and waits.
func runAll[C any](clients []C, fn func(C)) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// predictClient is one closed-loop client. Only its own goroutine
// touches it while the loop runs.
type predictClient struct {
	id   int
	gen  *Generator
	d    *daemon
	tr   *tracer
	twin *serve.Server
	buf  bytes.Buffer

	next int // requests sent, warm-up included
	// digest holds the first 4 bytes of the SHA-256 of every response
	// body, by request index (zero for a failed request), and lat the
	// latency of every timed request in ms. Both are kept short because
	// they grow with throughput and would otherwise move rss_peak_mb.
	digest []uint32
	lat    []float32
	// start and perWindow count timed completions per predictWindow.
	start     time.Time
	perWindow []int
	timedHits int
	timedHot  int
	failed    int
	wrong     int // traced run: twin answers that differ from HTTP

	overhead    []float64 // traced run: HTTP minus Server.Predict, µs
	resultBytes []float64 // traced run: encoded result sizes
}

// one sends the next request and records it.
func (c *predictClient) one(timed bool) {
	k := c.next
	c.next++
	req := c.gen.PredictRequest(c.id, k)
	t0 := time.Now()
	resp, err := c.d.client.Post(c.d.base+"/v1/predict", "application/json", bytes.NewReader(req.Body))
	if err != nil {
		c.failed++
		c.digest = append(c.digest, 0)
		return
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		c.failed++
		c.digest = append(c.digest, 0)
		return
	}
	sum := digest(c.buf.Bytes())
	c.digest = append(c.digest, sum)
	hit := resp.Header.Get("X-Cache") == "hit"
	if timed {
		c.lat = append(c.lat, float32(ms(t1.Sub(t0))))
		if w := int(t1.Sub(c.start) / predictWindow); w < len(c.perWindow) {
			c.perWindow[w]++
		}
		if hit {
			c.timedHits++
		}
		if req.Hot >= 0 {
			c.timedHot++
		}
	}
	if c.tr != nil {
		if !c.replay(req, int64(c.id)<<40|int64(k), hit, t0, t1, sum) {
			c.wrong++
		}
	}
}

// replay feeds the request to the layer functions in the order the
// predict handler calls them, one span per call, all children of the
// HTTP round trip's span. It reports whether the twin's answer matched
// the HTTP response.
func (c *predictClient) replay(req PredictReq, rid int64, hit bool, t0, t1 time.Time, sum uint32) bool {
	tr := c.tr
	root := tr.add("serve.http", rid, 0, t0, t1)
	s := time.Now()
	spec, err := scenario.Parse(req.Spec)
	e := time.Now()
	tr.add("scenario.Parse", rid, root, s, e)
	if err != nil {
		return false
	}
	spec.Engine = scenario.EngineModel
	s = e
	compiled, err := scenario.Compile(spec)
	e = time.Now()
	tr.add("scenario.Compile", rid, root, s, e)
	if err != nil {
		return false
	}
	s = e
	key, err := scenario.Fingerprint(spec, 1)
	e = time.Now()
	tr.add("scenario.Fingerprint", rid, root, s, e)
	if err != nil {
		return false
	}
	s = e
	data, _, cached, err := c.twin.Predict(spec)
	e = time.Now()
	if err != nil {
		return false
	}
	name := "serve.Predict/miss"
	if cached {
		name = "serve.Predict/hit"
	}
	tr.add(name, rid, root, s, e)
	if cached == hit {
		c.overhead = append(c.overhead, us(t1.Sub(t0)-e.Sub(s)))
	}
	if !cached {
		s = time.Now()
		rep, err := scenario.Replications(compiled, 1, 1)
		e = time.Now()
		tr.add("model.solve", rid, root, s, e)
		if err != nil {
			return false
		}
		s = e
		enc, err := encodeResult(key, rep)
		e = time.Now()
		tr.add("serve.encode", rid, root, s, e)
		if err != nil {
			return false
		}
		c.resultBytes = append(c.resultBytes, float64(len(enc)))
	}
	return digest(data) == sum
}

// encodeResult renders a report the way the server's result cache
// stores it: the text rendering and the Result JSON, newline-ended.
func encodeResult(key string, rep *scenario.Report) ([]byte, error) {
	var text bytes.Buffer
	if err := rep.Write(&text); err != nil {
		return nil, err
	}
	data, err := json.Marshal(serve.Result{Key: key, Report: rep, Text: text.String()})
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// predictReference computes the body /v1/predict must answer for a
// spec, in process: scenario.Replications plus the serve.Result
// encoding.
func predictReference(specJSON []byte) (uint32, error) {
	spec, err := scenario.Parse(specJSON)
	if err != nil {
		return 0, err
	}
	spec.Engine = scenario.EngineModel
	compiled, err := scenario.Compile(spec)
	if err != nil {
		return 0, err
	}
	key, err := scenario.Fingerprint(spec, 1)
	if err != nil {
		return 0, err
	}
	rep, err := scenario.Replications(compiled, 1, 1)
	if err != nil {
		return 0, err
	}
	data, err := encodeResult(key, rep)
	if err != nil {
		return 0, err
	}
	return digest(data), nil
}

// digest is the first 4 bytes of a body's SHA-256.
func digest(body []byte) uint32 {
	sum := sha256.Sum256(body)
	return binary.LittleEndian.Uint32(sum[:4])
}

// verifyPredict checks every answered request against its in-process
// reference, computing each distinct reference once, and returns the
// number of mismatches.
func verifyPredict(gen *Generator, clients []*predictClient) int64 {
	hot := make([]uint32, predictHotPool)
	hotErr := make([]error, predictHotPool)
	for h := range hot {
		hot[h], hotErr[h] = predictReference(gen.PredictHot(h).Spec)
	}
	type item struct{ client, k int }
	var items []item
	for _, c := range clients {
		for k, sum := range c.digest {
			if sum != 0 {
				items = append(items, item{c.id, k})
			}
		}
	}
	var wrong [loadGoroutines]int64
	var wg sync.WaitGroup
	for w := 0; w < loadGoroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(items); i += loadGoroutines {
				it := items[i]
				req := gen.PredictRequest(it.client, it.k)
				var want uint32
				var err error
				if req.Hot >= 0 {
					want, err = hot[req.Hot], hotErr[req.Hot]
				} else {
					want, err = predictReference(req.Spec)
				}
				if err != nil || want != clients[it.client].digest[it.k] {
					wrong[w]++
				}
			}
		}()
	}
	wg.Wait()
	var n int64
	for _, x := range wrong {
		n += x
	}
	if n > 0 {
		fmt.Printf("predict: %d responses differ from the in-process reference\n", n)
	}
	return n
}
