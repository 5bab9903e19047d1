package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// campaignRefJSON holds the reference digest of each campaign variant:
// the SHA-256 of both reports' JSON and text renderings, recorded with
// -write-campaign-ref.
//
//go:embed campaign_ref.json
var campaignRefJSON []byte

type campaignRef struct {
	Variants []string `json:"variants"`
}

// runCampaign is the campaign workload: in-process campaign.Compile and
// campaign.Run with Workers = loadGoroutines, no cache and no HTTP.
// Each pass runs the two campaigns of one variant back to back; passes
// repeat, visiting the variants in seeded order, until the run length
// is reached.
func runCampaign(b *bench, dur time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{opName: "campaign pass", tailQ: 0.95, layers: map[string]metric{}}
	var ref campaignRef
	if err := json.Unmarshal(campaignRefJSON, &ref); err != nil || len(ref.Variants) != campaignVariants {
		return nil, fmt.Errorf("campaign_ref.json: want %d variants (%v)", campaignVariants, err)
	}
	// Set-up: parse and compile both campaigns of each variant, going
	// round the variants until setupRepeats set-ups are timed.
	order := b.gen.CampaignOrder()
	compiled := make([][2]*campaign.Compiled, campaignVariants)
	for i := 0; i < max(setupRepeats, campaignVariants); i++ {
		v := order[i%campaignVariants]
		t0 := time.Now()
		pair, err := compileVariant(v, tr)
		if err != nil {
			return nil, err
		}
		ph.setup = append(ph.setup, time.Since(t0).Seconds())
		compiled[v] = pair
	}

	mem0 := measureMem()
	start := time.Now()
	deadline := start.Add(dur)
	var simulated int64
	var rates []float64 // replications simulated per second, by pass
	var firstBusy float64
	var first [2]*campaign.Report // the first pass's reports
	var firstRoots [2]int64       // and their root spans
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		v := order[i%campaignVariants]
		t0 := time.Now()
		var reps [2]*campaign.Report
		var roots [2]int64
		passReps := 0
		for j, c := range compiled[v] {
			var err error
			if reps[j], roots[j], err = runTimed(c, int64(2*i+j), t0, ph, tr); err != nil {
				return nil, err
			}
			passReps += reps[j].SimulatedReps
		}
		t1 := time.Now()
		simulated += int64(passReps)
		rates = append(rates, float64(passReps)/t1.Sub(t0).Seconds())
		ph.lat = append(ph.lat, ms(t1.Sub(t0)))
		ph.attempted += 2
		if got := campaignDigest(reps); got != ref.Variants[v] {
			ph.failed += 2
			ph.problem("campaign variant %d digest %s, reference %s", v, got, ref.Variants[v])
		}
		if i == 0 {
			var total, unconverged int
			for _, r := range reps {
				for _, p := range r.Points {
					total += p.Reps
					if !p.Converged {
						unconverged++
					}
				}
			}
			ph.layers["campaign.reps"] = metric{float64(total), "count"}
			ph.layers["campaign.points_unconverged"] = metric{float64(unconverged), "count"}
			firstBusy = float64(t1.Sub(t0).Nanoseconds()) * loadGoroutines
			first, firstRoots = reps, roots
		}
	}
	elapsed := time.Since(start)
	ph.endMem(mem0, simulated)
	ph.rssMB = peakRSSMB()
	ph.throughput = median(rates)

	if tr != nil {
		// Replay the first pass: every replication of every point run
		// directly, for engine speed and the pool's busy share.
		perNS := map[string][]float64{}
		var runNS float64
		for j, c := range compiled[order[0]] {
			ns, wrong, err := replayCampaign(c, first[j], int64(j), firstRoots[j], tr, perNS)
			if err != nil {
				return nil, err
			}
			runNS += ns
			ph.failed += wrong
		}
		for _, engine := range []string{"sim", "mac"} {
			ph.layers[engine+".us_per_ns"] = metric{median(perNS[engine]), "us/ns"}
		}
		ph.layers["par.busy_share"] = metric{runNS / firstBusy, "ratio"}
	}
	ph.note("campaign_s %.6g s (median of %d passes, %d variants visited)", median(ph.lat)/1e3, len(ph.lat), min(len(ph.lat), campaignVariants))
	ph.note("replications simulated %d in %.3f s; median pass rate %.6g reps/s", simulated, elapsed.Seconds(), ph.throughput)
	ph.note("verified %d campaign reports against stored digests", ph.attempted)
	return ph, nil
}

// compileVariant parses and compiles both campaigns of a variant.
func compileVariant(v int, tr *tracer) ([2]*campaign.Compiled, error) {
	var pair [2]*campaign.Compiled
	simGrid, macGrid := CampaignSpecs(v)
	for j, data := range [][]byte{simGrid, macGrid} {
		spec, err := campaign.Parse(data)
		if err != nil {
			return pair, err
		}
		s := time.Now()
		pair[j], err = campaign.Compile(spec)
		if tr != nil {
			tr.add("campaign.Compile", -1-int64(2*v+j), 0, s, time.Now())
		}
		if err != nil {
			return pair, err
		}
	}
	return pair, nil
}

// runTimed runs one campaign, appending each grid point's completion
// time since passStart to ph.tailLat. Traced, the run is a root span,
// returned, and each interval between point completions a child span.
func runTimed(c *campaign.Compiled, rid int64, passStart time.Time, ph *phase, tr *tracer) (*campaign.Report, int64, error) {
	var mu sync.Mutex
	var done []time.Time
	s := time.Now()
	rep, err := campaign.Run(c, campaign.Opts{
		Workers: loadGoroutines,
		PointDone: func(int, int) {
			mu.Lock()
			done = append(done, time.Now())
			mu.Unlock()
		},
	})
	e := time.Now()
	if err != nil {
		return nil, 0, err
	}
	for _, t := range done {
		ph.tailLat = append(ph.tailLat, ms(t.Sub(passStart)))
	}
	var root int64
	if tr != nil {
		root = tr.add("campaign.Run", rid, 0, s, e)
		prev := s
		for _, t := range done {
			tr.add("campaign.point", rid, root, prev, t)
			prev = t
		}
	}
	return rep, root, nil
}

// replayCampaign runs every replication of every point of a finished
// campaign directly and summarizes it, one span per call under root,
// checking each point against the campaign's report. It returns the
// summed RunOnce time in ns and the number of points whose replay
// differs.
func replayCampaign(c *campaign.Compiled, rep *campaign.Report, rid, root int64, tr *tracer, perNS map[string][]float64) (float64, int64, error) {
	var total float64
	var wrong int64
	for i, p := range c.Points {
		want := rep.Points[i].Report.Points[0]
		seeds, perRep, controls, ns, err := runReps(tr, rid, root, p.Compiled, 0, rep.Points[i].Reps, perNS)
		if err != nil {
			return 0, 0, err
		}
		total += ns
		s := time.Now()
		got := scenario.SummarizePoint(p.Compiled.Points[0].N, seeds, perRep, controls, p.Compiled.Spec.VarianceReduction)
		tr.add("scenario.SummarizePoint", rid, root, s, time.Now())
		a, _ := json.Marshal(got) // reports of finite metrics always marshal
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			wrong++
		}
	}
	return total, wrong, nil
}

// campaignDigest hashes both reports of a pass: JSON, then text.
func campaignDigest(reps [2]*campaign.Report) string {
	h := sha256.New()
	for _, r := range reps {
		data, err := json.Marshal(r)
		if err != nil {
			return "error: " + err.Error()
		}
		h.Write(data)
		if err := r.Write(h); err != nil {
			return "error: " + err.Error()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeCampaignRef recomputes every variant's digest and writes the
// reference file.
func writeCampaignRef(path string) error {
	ref := campaignRef{Variants: make([]string, campaignVariants)}
	for v := range ref.Variants {
		pair, err := compileVariant(v, nil)
		if err != nil {
			return err
		}
		var reps [2]*campaign.Report
		for j, c := range pair {
			if reps[j], err = campaign.Run(c, campaign.Opts{Workers: loadGoroutines}); err != nil {
				return err
			}
		}
		ref.Variants[v] = campaignDigest(reps)
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
