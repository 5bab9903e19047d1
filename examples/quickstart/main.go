// Quickstart: evaluate the IEEE 1901 CSMA/CA performance of a home
// power-line network three ways — simulator, analytical model, emulated
// HomePlug AV measurement — and print the Figure 2 comparison.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/sim"
)

func main() {
	fmt.Println("IEEE 1901 collision probability, three ways (CA1 defaults)")
	fmt.Println()
	fmt.Printf("%3s  %12s  %10s  %22s\n", "N", "simulation", "analysis", "measurement (±95% CI)")

	// Short horizons keep the example interactive (~1 s); the paper's
	// full setup is 5·10⁸ µs simulations and 10 × 240 s tests.
	points, _, err := experiments.Figure2(experiments.Figure2Config{
		Ns:                 []int{1, 2, 3, 4, 5, 6, 7},
		Tests:              3,
		TestDurationMicros: 1e7,
		SimTimeMicros:      2e7,
		Seed:               1,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range points {
		fmt.Printf("%3d  %12.4f  %10.4f  %14.4f ± %.4f\n",
			p.N, p.Simulation, p.Analysis, p.Measured.Mean, p.Measured.CI95)
	}

	fmt.Println()
	fmt.Println("Normalized throughput (simulator vs model), N = 3:")
	const n = 3
	in := sim.DefaultInputs(n)
	in.SimTime = 2e7
	in.Seed = 1
	eng, err := sim.NewEngine(in)
	if err != nil {
		log.Fatal(err)
	}
	sol, err := model.SolveLoaded([]model.LoadedGroup{{
		Group: model.Group{N: n, Params: config.DefaultCA1()}, Priority: config.CA1, Saturated: true,
	}}, model.DefaultTiming())
	if err != nil {
		log.Fatal(err)
	}
	c := sol.Classes[0]
	met := model.MetricsFor(model.Prediction{Tau: c.Tau[0], Gamma: c.Gamma[0]}, n, model.DefaultTiming())
	fmt.Printf("  simulator: %.4f\n", eng.Run().NormalizedThroughput)
	fmt.Printf("  model:     %.4f\n", met.NormalizedThroughput)
}
