package sim

import (
	"fmt"

	"repro/internal/backoff"
	"repro/internal/config"
	"repro/internal/rng"
	"repro/internal/timing"
)

// DCFInputs parameterizes the 802.11 baseline simulation. The medium
// loop, timing accounting and statistics definitions are identical to
// the 1901 engine so that the two protocols are compared like for like;
// only the per-station backoff engine differs.
type DCFInputs struct {
	N           int
	SimTime     float64
	Tc          float64
	Ts          float64
	FrameLength float64
	DCF         config.DCF
	// SlottedBusy selects the busy-period convention: true (default in
	// the papers' comparisons) decrements a frozen station's counter
	// once per busy period, like the 1901 simulator; false freezes it.
	SlottedBusy bool
	Seed        uint64
	// Observer optionally receives every medium event (snapshots are
	// not populated for DCF stations; txs and kind are).
	Observer Observer
}

// DefaultDCFInputs mirrors DefaultInputs with the classic DCF config.
func DefaultDCFInputs(n int) DCFInputs {
	return DCFInputs{
		N:           n,
		SimTime:     5e8,
		Tc:          timing.DefaultCollisionDuration,
		Ts:          timing.DefaultSuccessDuration,
		FrameLength: timing.DefaultFrameDuration,
		DCF:         config.Default80211(),
		SlottedBusy: true,
		Seed:        1,
	}
}

// Validate checks the numeric inputs and the DCF configuration.
func (in DCFInputs) Validate() error {
	if in.N < 1 {
		return fmt.Errorf("sim: N=%d must be ≥ 1", in.N)
	}
	if in.SimTime <= 0 {
		return fmt.Errorf("sim: sim_time=%v must be positive", in.SimTime)
	}
	if in.Tc <= 0 || in.Ts <= 0 || in.FrameLength <= 0 {
		return fmt.Errorf("sim: Tc/Ts/frame_length must be positive")
	}
	return in.DCF.Validate()
}

// RunDCF executes the 802.11 baseline and returns a Result with the same
// statistics definitions as the 1901 engine.
func RunDCF(in DCFInputs) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	root := rng.New(in.Seed)
	stations := make([]*backoff.DCFStation, in.N)
	intents := make([]backoff.Action, in.N)
	for i := range stations {
		stations[i] = backoff.NewDCFStation(in.DCF, root.Split(uint64(i)))
		stations[i].DecrementOnBusy = in.SlottedBusy
		intents[i] = stations[i].Start()
	}

	res := Result{
		Inputs: Inputs{
			N: in.N, SimTime: in.SimTime, Tc: in.Tc, Ts: in.Ts,
			FrameLength: in.FrameLength, Params: in.DCF.Params(), Seed: in.Seed,
		},
		PerStation: make([]StationStats, in.N),
	}

	txs := make([]int, 0, in.N)
	txMask := make([]bool, in.N)
	var t float64
	for t <= in.SimTime {
		txs = txs[:0]
		for i, a := range intents {
			if a == backoff.Transmit {
				txs = append(txs, i)
			}
		}
		if in.Observer != nil {
			var kind SlotKind
			switch len(txs) {
			case 0:
				kind = Idle
			case 1:
				kind = Success
			default:
				kind = Collision
			}
			in.Observer.OnSlot(t, kind, txs, nil)
		}
		switch len(txs) {
		case 0:
			if in.Observer != nil {
				res.IdleSlots++
				for i, s := range stations {
					intents[i] = s.AfterIdle()
				}
				t += timing.SlotTime
				break
			}
			fastForwardIdle(stations, intents, &t, in.SimTime, &res.IdleSlots)
		case 1:
			w := txs[0]
			res.Successes++
			res.PerStation[w].Successes++
			res.PerStation[w].Attempts++
			for i, s := range stations {
				intents[i] = s.AfterBusy(i == w, true)
			}
			t += in.Ts
		default:
			res.CollisionEvents++
			res.CollidedFrames += int64(len(txs))
			for _, i := range txs {
				txMask[i] = true
				res.PerStation[i].Collided++
				res.PerStation[i].Attempts++
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
		res.PerStation[i].Redraws = s.Redraws()
	}
	if attempts := res.CollidedFrames + res.Successes; attempts > 0 {
		res.CollisionProbability = float64(res.CollidedFrames) / float64(attempts)
	}
	res.NormalizedThroughput = float64(res.Successes) * in.FrameLength / t
	return res, nil
}

// fastForwardIdle batches the provably idle run that begins at *t: when
// every station defers, the next min(BC) slots are empty and consume no
// randomness, so the per-station updates collapse into one AfterIdleN
// call. The per-slot time accounting is replayed scalar-wise (one
// SlotTime addition per slot) so the float accumulation — and the
// SimTime stopping point — stays bit-identical to the slot-by-slot
// loop.
func fastForwardIdle(stations []*backoff.DCFStation, intents []backoff.Action, t *float64, simTime float64, idleSlots *int64) {
	m := stations[0].BC()
	for _, s := range stations[1:] {
		m = min(m, s.BC())
	}
	k := 0
	for k < m && *t <= simTime {
		*idleSlots++
		*t += timing.SlotTime
		k++
	}
	for i, s := range stations {
		intents[i] = s.AfterIdleN(k)
	}
}
