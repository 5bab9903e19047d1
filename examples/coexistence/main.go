// Coexistence: the deployment question behind the boosting results.
// A tuned (cw, dc) configuration that wins when *every* station runs it
// can behave very differently when it shares the power line with
// legacy stations on the Table 1 defaults. This example evaluates both
// mixes with the heterogeneous fixed-point model and the heterogeneous
// simulator:
//
//   - the search's best homogeneous config (highly deferential,
//     dc = [0 0 0 0]) — which politely LOSES to legacy stations;
//   - an aggressive config (deferral disabled, small windows) — which
//     captures the channel ~8:1 and starves the legacy stations.
//
// Run with:
//
//	go run ./examples/coexistence
package main

import (
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/sim"
)

const (
	perGroup = 4
	simTime  = 5e7
)

func main() {
	def := config.DefaultCA1()
	inf := 1 << 20
	polite := config.Params{Name: "best-homogeneous", CW: []int{4, 16, 64, 256}, DC: []int{0, 0, 0, 0}}
	aggressive := config.Params{Name: "aggressive", CW: []int{4, 8, 16, 32}, DC: []int{inf, inf, inf, inf}}

	fmt.Printf("%d legacy CA1 stations sharing the line with %d tuned stations:\n\n", perGroup, perGroup)
	for _, tuned := range []config.Params{polite, aggressive} {
		legacySim, tunedSim := simulate(def, tuned)
		legacyMod, tunedMod := analyze(def, tuned)
		fmt.Printf("tuned config %-18s cw=%v dc=%v\n", tuned.Name, tuned.CW, shortDC(tuned.DC))
		fmt.Printf("  per-station throughput   sim: legacy %.4f / tuned %.4f\n", legacySim, tunedSim)
		fmt.Printf("                         model: legacy %.4f / tuned %.4f\n", legacyMod, tunedMod)
		fmt.Printf("  capture ratio (tuned/legacy): %.2f (sim), %.2f (model)\n\n",
			tunedSim/legacySim, tunedMod/legacyMod)
	}
	fmt.Println("The best homogeneous config is *polite*: deployed unilaterally it loses")
	fmt.Println("to the legacy fleet. The aggressive config captures the channel but")
	fmt.Println("collapses aggregate efficiency. Boosting is a fleet-wide decision.")
}

// simulate runs the heterogeneous simulator and returns per-station
// normalized throughput for (legacy, tuned).
func simulate(legacy, tuned config.Params) (float64, float64) {
	n := 2 * perGroup
	in := sim.DefaultInputs(n)
	in.SimTime = simTime
	in.PerStation = make([]config.Params, n)
	for i := 0; i < perGroup; i++ {
		in.PerStation[i] = legacy
		in.PerStation[perGroup+i] = tuned
	}
	e, err := sim.NewEngine(in)
	if err != nil {
		log.Fatal(err)
	}
	r := e.Run()
	group := func(g int) float64 {
		var succ int64
		for i := 0; i < perGroup; i++ {
			succ += r.PerStation[g*perGroup+i].Successes
		}
		return float64(succ) * in.FrameLength / r.Elapsed / perGroup
	}
	return group(0), group(1)
}

// analyze solves the heterogeneous fixed point for the same mix.
func analyze(legacy, tuned config.Params) (float64, float64) {
	sol, err := model.SolveLoaded([]model.LoadedGroup{
		{Group: model.Group{N: perGroup, Params: legacy}, Priority: config.CA1, Saturated: true},
		{Group: model.Group{N: perGroup, Params: tuned}, Priority: config.CA1, Saturated: true},
	}, model.DefaultTiming())
	if err != nil {
		log.Fatal(err)
	}
	met := sol.Classes[0].Met
	return met.PerStationThroughput[0], met.PerStationThroughput[1]
}

func shortDC(dc []int) []string {
	out := make([]string, len(dc))
	for i, d := range dc {
		if d >= 1<<20 {
			out[i] = "∞"
		} else {
			out[i] = fmt.Sprint(d)
		}
	}
	return out
}
