package main

import (
	"bytes"
	"testing"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// inputs renders a prefix of every workload's inputs for a seed.
func inputs(seed uint64) []byte {
	g := NewGenerator(seed)
	var b bytes.Buffer
	for c := 0; c < loadGoroutines; c++ {
		for k := 0; k < 300; k++ {
			b.Write(g.PredictRequest(c, k).Body)
		}
	}
	for k := 0; k < 200; k++ {
		b.Write(g.JobRequest(k).Body)
	}
	for _, v := range g.CampaignOrder() {
		b.WriteByte(byte(v))
	}
	return b.Bytes()
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42} {
		if a, b := inputs(seed), inputs(seed); !bytes.Equal(a, b) {
			t.Errorf("seed %d: two generators disagree", seed)
		}
	}
	if bytes.Equal(inputs(1), inputs(2)) {
		t.Error("seeds 1 and 2 give identical inputs")
	}
	g1, g2 := NewGenerator(1), NewGenerator(2)
	if bytes.Equal(g1.PredictHot(0).Body, g2.PredictHot(0).Body) {
		t.Error("seeds 1 and 2 share a hot predict spec")
	}
	if g1.JobRequest(0).Seed == g2.JobRequest(0).Seed {
		t.Error("seeds 1 and 2 share a job seed")
	}
}

// TestGeneratorInputsValid checks that every generated input is one the
// program accepts, so no benchmark operation fails by construction.
func TestGeneratorInputsValid(t *testing.T) {
	g := NewGenerator(7)
	hot := 0
	for k := 0; k < 400; k++ {
		req := g.PredictRequest(k%loadGoroutines, k)
		if req.Hot >= 0 {
			hot++
		}
		spec, err := scenario.Parse(req.Spec)
		if err != nil {
			t.Fatalf("predict %d: %v\n%s", k, err, req.Spec)
		}
		c, err := scenario.Compile(spec)
		if err != nil {
			t.Fatalf("predict %d: %v\n%s", k, err, req.Spec)
		}
		if _, err := scenario.Replications(c, 1, 1); err != nil {
			t.Fatalf("predict %d: %v\n%s", k, err, req.Spec)
		}
	}
	if hot < 150 || hot > 250 {
		t.Errorf("hot share %d/400, want about half", hot)
	}
	kinds := make([]int, jobKindsN)
	hotJobs := 0
	for k := 0; k < 4*jobKindsN*jobHotBlock; k++ {
		req := g.JobRequest(k)
		kinds[req.Kind]++
		if req.Hot {
			hotJobs++
		}
		spec, err := scenario.Parse(req.Spec)
		if err != nil {
			t.Fatalf("job %d: %v\n%s", k, err, req.Spec)
		}
		if _, err := scenario.Compile(spec); err != nil {
			t.Fatalf("job %d: %v\n%s", k, err, req.Spec)
		}
	}
	for kind, n := range kinds {
		if n != 4*jobHotBlock {
			t.Errorf("kind %s drawn %d times, want %d", jobTemplates[kind].kind, n, 4*jobHotBlock)
		}
	}
	if want := 4 * jobKindsN * jobHotPerBlock; hotJobs != want {
		t.Errorf("%d hot jobs, want %d", hotJobs, want)
	}
	for v := 0; v < campaignVariants; v++ {
		for _, data := range func() [][]byte { a, b := CampaignSpecs(v); return [][]byte{a, b} }() {
			spec, err := campaign.Parse(data)
			if err != nil {
				t.Fatalf("campaign variant %d: %v", v, err)
			}
			if _, err := campaign.Compile(spec); err != nil {
				t.Fatalf("campaign variant %d: %v", v, err)
			}
		}
	}
}
