package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/backoff"
	"repro/internal/config"
	"repro/internal/rng"
	"repro/internal/timing"
)

// runStationOracle is the reference medium loop the engine's flat
// kernel must reproduce: every station is a backoff.Station driven
// through Start, AfterIdle/AfterIdleN and AfterBusy, one method call per
// station per event. Without an observer it batches idle runs through
// AfterIdleN; with one it steps every slot. Controls, when enabled, read
// the stations through their accessors. It also returns each station's
// final counters.
func runStationOracle(in Inputs, obs Observer, controls bool) (Result, []backoff.Snapshot) {
	root := rng.New(in.Seed)
	stations := make([]*backoff.Station, in.N)
	for i := range stations {
		stations[i] = backoff.NewStation(in.stationParams(i), root.Split(uint64(i)))
	}
	errSrc := make([]*rng.Source, in.N)
	for i := range errSrc {
		if in.ErrorProb != nil && in.ErrorProb[i] > 0 {
			errSrc[i] = root.Split(errStreamBase + uint64(i))
		}
	}
	intents := make([]backoff.Action, in.N)
	txs := make([]int, 0, in.N)
	txMask := make([]bool, in.N)
	snaps := make([]backoff.Snapshot, in.N)
	var ctrl *controller
	if controls {
		ctrl = newController(&in)
	}
	predictNext := func(t0 float64, winner int) {
		for i, s := range stations {
			bc, dc, bpc := s.BC(), s.DC(), s.BPC()
			if i == winner {
				bpc = 0
			}
			if bc == 0 || dc == 0 {
				p := in.stationParams(i)
				ctrl.drawing[i] = true
				ctrl.w[i] = p.CW[p.Stage(bpc)]
			} else {
				ctrl.drawing[i] = false
				ctrl.fixed[i] = bc - 1
			}
		}
		ctrl.accumulate(t0)
	}

	res := Result{Inputs: in, PerStation: make([]StationStats, in.N)}
	if ctrl != nil {
		ctrl.predictInitial()
	}
	for i, s := range stations {
		intents[i] = s.Start()
	}

	var t float64
	for t <= in.SimTime {
		txs = txs[:0]
		for i, a := range intents {
			if a == backoff.Transmit {
				txs = append(txs, i)
			}
		}

		var kind SlotKind
		switch len(txs) {
		case 0:
			kind = Idle
		case 1:
			kind = Success
			if w := txs[0]; errSrc[w] != nil && errSrc[w].Bernoulli(in.ErrorProb[w]) {
				kind = FrameError
			}
		default:
			kind = Collision
		}

		if obs != nil {
			for i, s := range stations {
				snaps[i] = s.Snapshot()
			}
			obs.OnSlot(t, kind, txs, snaps)
		}

		switch kind {
		case Idle:
			if obs != nil {
				res.IdleSlots++
				for i, s := range stations {
					intents[i] = s.AfterIdle()
				}
				t += timing.SlotTime
				break
			}
			m := stations[0].BC()
			for _, s := range stations[1:] {
				m = min(m, s.BC())
			}
			k := 0
			for k < m && t <= in.SimTime {
				res.IdleSlots++
				t += timing.SlotTime
				k++
			}
			for i, s := range stations {
				intents[i] = s.AfterIdleN(k)
			}

		case Success:
			w := txs[0]
			res.Successes++
			res.PerStation[w].Successes++
			res.PerStation[w].Attempts++
			if ctrl != nil {
				predictNext(t+in.Ts, w)
			}
			for i, s := range stations {
				intents[i] = s.AfterBusy(i == w, true)
			}
			t += in.Ts

		case FrameError:
			w := txs[0]
			res.FrameErrors++
			res.PerStation[w].Errored++
			res.PerStation[w].Attempts++
			if ctrl != nil {
				predictNext(t+in.Ts, -1)
			}
			for i, s := range stations {
				intents[i] = s.AfterBusy(i == w, false)
			}
			t += in.Ts

		case Collision:
			res.CollisionEvents++
			res.CollidedFrames += int64(len(txs))
			for _, i := range txs {
				txMask[i] = true
				res.PerStation[i].Collided++
				res.PerStation[i].Attempts++
			}
			if ctrl != nil {
				predictNext(t+in.Tc, -1)
			}
			for i, s := range stations {
				intents[i] = s.AfterBusy(txMask[i], false)
			}
			for _, i := range txs {
				txMask[i] = false
			}
			t += in.Tc
		}
	}

	res.Elapsed = t
	for i, s := range stations {
		res.PerStation[i].Deferrals = s.Deferrals()
		res.PerStation[i].Redraws = s.Redraws()
		snaps[i] = s.Snapshot()
	}
	attempts := res.CollidedFrames + res.Successes + res.FrameErrors
	if attempts > 0 {
		res.CollisionProbability = float64(res.CollidedFrames) / float64(attempts)
	}
	res.NormalizedThroughput = float64(res.Successes) * in.FrameLength / t
	if ctrl != nil {
		ctrl.finish(&res)
	}
	return res, snaps
}

// randomOracleInputs draws one engine configuration: N, per-station
// stage tables (window 1 and deferral 0 included, deferral-disabled
// stages too), optional channel-error probabilities including the 0
// and 1 edges, and a horizon.
func randomOracleInputs(src *rng.Source) Inputs {
	n := 1 + src.Intn(12)
	if src.Intn(8) == 0 {
		n = 13 + src.Intn(12)
	}
	in := DefaultInputs(n)
	in.Seed = src.Uint64()
	in.SimTime = 1e4 + float64(src.Intn(600_000)) + src.Float64()
	windows := []int{1, 2, 3, 4, 8, 16, 32, 64, 100, 512, 1024}
	deferrals := []int{0, 0, 1, 2, 3, 15, 1 << 20}
	params := func() config.Params {
		stages := 1 + src.Intn(5)
		p := config.Params{Name: "random", CW: make([]int, stages), DC: make([]int, stages)}
		for s := range p.CW {
			p.CW[s] = windows[src.Intn(len(windows))]
			p.DC[s] = deferrals[src.Intn(len(deferrals))]
		}
		return p
	}
	if src.Intn(3) == 0 {
		in.Params = params()
	} else {
		// A few distinct schedules shared among the stations.
		kinds := []config.Params{params(), params(), config.DefaultCA1()}
		in.PerStation = make([]config.Params, n)
		for i := range in.PerStation {
			in.PerStation[i] = kinds[src.Intn(len(kinds))]
		}
	}
	if src.Intn(2) == 0 {
		probs := []float64{0, 0.2, 1, src.Float64()}
		in.ErrorProb = make([]float64, n)
		for i := range in.ErrorProb {
			in.ErrorProb[i] = probs[src.Intn(len(probs))]
		}
	}
	return in
}

// TestKernelMatchesStationOracle is the differential test of the flat
// kernel against the Station-driven reference loop: on ~300 random
// configurations, with and without controls, the batched Results must
// be deeply equal and the observed runs must report the same per-slot
// stream (every slot's time, kind, transmitters and snapshots); every
// station's final counters must agree too.
func TestKernelMatchesStationOracle(t *testing.T) {
	src := rng.New(20240613)
	for c := 0; c < 300; c++ {
		in := randomOracleInputs(src)
		controls := c%2 == 1
		name := fmt.Sprintf("case %d (N=%d T=%v controls=%v errors=%v)", c, in.N, in.SimTime, controls, in.ErrorProb != nil)
		if err := in.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e, err := NewEngine(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if controls {
			e.EnableControls()
		}
		got := e.Run()
		want, final := runStationOracle(in, nil, controls)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: kernel Result ≠ Station oracle\nkernel: %+v\noracle: %+v", name, got, want)
		}
		for i, s := range final {
			if k := e.Snapshot(i); k != s {
				t.Fatalf("%s: station %d ends at %+v, oracle at %+v", name, i, k, s)
			}
		}

		kobs, oobs := newHashObserver(), newHashObserver()
		e, err = NewEngine(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e.SetObserver(kobs)
		if controls {
			e.EnableControls()
		}
		got = e.Run()
		want, _ = runStationOracle(in, oobs, controls)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: observed kernel Result ≠ Station oracle", name)
		}
		if kobs.slots != oobs.slots || !bytes.Equal(kobs.h.Sum(nil), oobs.h.Sum(nil)) {
			t.Fatalf("%s: observer streams differ (kernel %d slots, oracle %d)", name, kobs.slots, oobs.slots)
		}
	}
}
