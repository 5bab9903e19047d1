package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/sim"
)

// Coexistence (experiment E8) answers the deployment question the
// boosting results raise: what happens when stations running a tuned
// configuration share the power line with stations on the Table 1
// defaults? Half the stations run each configuration; per-station
// throughput shares come from both the heterogeneous fixed point and
// the heterogeneous simulator. An aggressive tuned config that starves
// legacy stations is not deployable, however good its homogeneous
// score — this experiment quantifies the capture effect.
func Coexistence(boosted config.Params, nPerGroup int, simTime float64, seed uint64) (*Table, error) {
	if nPerGroup < 1 {
		return nil, fmt.Errorf("experiments: coexistence needs ≥ 1 stations per group")
	}
	if err := boosted.Validate(); err != nil {
		return nil, err
	}
	def := config.DefaultCA1()

	// Model side: both groups saturated in one class.
	sol, err := model.SolveLoaded([]model.LoadedGroup{
		{Group: model.Group{N: nPerGroup, Params: def}, Priority: config.CA1, Saturated: true},
		{Group: model.Group{N: nPerGroup, Params: boosted}, Priority: config.CA1, Saturated: true},
	}, model.DefaultTiming())
	if err != nil {
		return nil, err
	}
	met, gamma := sol.Classes[0].Met, sol.Classes[0].Gamma

	// Simulator side: stations 0..n-1 default, n..2n-1 boosted.
	n := 2 * nPerGroup
	in := sim.DefaultInputs(n)
	in.SimTime = simTime
	in.Seed = seed
	in.PerStation = make([]config.Params, n)
	for i := 0; i < nPerGroup; i++ {
		in.PerStation[i] = def
		in.PerStation[nPerGroup+i] = boosted
	}
	e, err := sim.NewEngine(in)
	if err != nil {
		return nil, err
	}
	r := e.Run()

	perStationSim := func(group int) float64 {
		var succ int64
		for i := 0; i < nPerGroup; i++ {
			succ += r.PerStation[group*nPerGroup+i].Successes
		}
		return float64(succ) * in.FrameLength / r.Elapsed / float64(nPerGroup)
	}

	t := &Table{
		ID:    "E8",
		Title: fmt.Sprintf("Coexistence: %d default CA1 stations vs %d boosted (%s)", nPerGroup, nPerGroup, boosted.Name),
		Note:  "Per-station normalized throughput by group, heterogeneous model vs heterogeneous simulator. The capture ratio quantifies how strongly the tuned configuration starves legacy stations.",
		Header: []string{"group", "config", "per-station thr (sim)", "per-station thr (model)",
			"γ (model)"},
	}
	t.AddRow("legacy", fmt.Sprint(def.CW), f(perStationSim(0)), f(met.PerStationThroughput[0]), f(gamma[0]))
	t.AddRow("boosted", fmt.Sprint(boosted.CW), f(perStationSim(1)), f(met.PerStationThroughput[1]), f(gamma[1]))
	capture := perStationSim(1) / perStationSim(0)
	t.AddRow("capture ratio", "boosted / legacy", f(capture), f(met.PerStationThroughput[1]/met.PerStationThroughput[0]), "—")
	return t, nil
}
