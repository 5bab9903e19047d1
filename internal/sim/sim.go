// Package sim implements the slot-synchronous finite-state-machine
// simulator of the IEEE 1901 CSMA/CA mechanism published with the paper
// (Section 4.2), generalized to run either 1901 or 802.11 backoff
// engines over the same medium loop.
//
// The published MATLAB function
//
//	sim_1901(N, sim_time, Tc, Ts, frame_length, cw, dc)
//
// is reproduced exactly by Sim1901 (same inputs, same two outputs —
// collision probability and normalized throughput, same event semantics,
// same statistics definitions). The generic Engine additionally exposes
// per-station counters and an Observer hook used to regenerate the
// Figure 1 trace and the fairness studies.
//
// Assumptions inherited from the paper's simulator: stations are
// saturated, the retry limit is infinite, all stations form a single
// contention domain, and the channel is error-free. The last assumption
// can be lifted per station through Inputs.ErrorProb (frame loss
// without collision), a knob the declarative scenario layer
// (internal/scenario) exposes; leaving it nil reproduces the paper
// exactly.
package sim

import (
	"fmt"
	"math"

	"repro/internal/backoff"
	"repro/internal/config"
	"repro/internal/rng"
	"repro/internal/timing"
)

// Inputs mirrors Table 3 of the paper: the simulator's input variables
// in the order they are given to sim_1901.
type Inputs struct {
	// N is the number of saturated stations.
	N int
	// SimTime is the total simulation time in µs.
	SimTime float64
	// Tc is the duration of a collision in µs.
	Tc float64
	// Ts is the duration of a successful transmission in µs.
	Ts float64
	// FrameLength is the frame duration in µs, not including overheads
	// such as preamble or inter-frame spaces; used only to normalize
	// throughput.
	FrameLength float64
	// Params carries the cw and dc vectors.
	Params config.Params
	// PerStation optionally configures each station individually (for
	// heterogeneous coexistence scenarios). When non-nil it must have
	// exactly N entries and overrides Params.
	PerStation []config.Params
	// ErrorProb optionally assigns each station a per-frame channel
	// error probability: a transmission that wins the medium alone is
	// still lost with this probability (impulsive power-line noise, no
	// collision involved). The destination acknowledges the errored
	// frame with an all-blocks-errored indication, so the transmitter
	// treats it like a failed attempt and moves to the next backoff
	// stage. When non-nil it must have exactly N entries in [0, 1];
	// nil keeps the paper's error-free channel. Error draws come from
	// dedicated per-station streams, so enabling errors never perturbs
	// the backoff draws of an otherwise identical run.
	ErrorProb []float64
	// Seed selects the random stream; runs with equal inputs and seeds
	// are bit-identical.
	Seed uint64
}

// DefaultInputs returns the exact invocation the paper gives as example:
// sim_1901(N, 5·10⁸, 2920.64, 2542.64, 2050, [8 16 32 64], [0 1 3 15]).
func DefaultInputs(n int) Inputs {
	return Inputs{
		N:           n,
		SimTime:     5e8,
		Tc:          timing.DefaultCollisionDuration,
		Ts:          timing.DefaultSuccessDuration,
		FrameLength: timing.DefaultFrameDuration,
		Params:      config.DefaultCA1(),
		Seed:        1,
	}
}

// Validate checks the inputs the way the MATLAB function does (it
// returns early when the cw and dc vectors disagree) plus basic range
// checks on the numeric inputs.
func (in Inputs) Validate() error {
	if in.N < 1 {
		return fmt.Errorf("sim: N=%d must be ≥ 1", in.N)
	}
	if in.SimTime <= 0 || math.IsNaN(in.SimTime) || math.IsInf(in.SimTime, 0) {
		return fmt.Errorf("sim: sim_time=%v must be a positive finite duration", in.SimTime)
	}
	for _, d := range []struct {
		name string
		v    float64
	}{{"Tc", in.Tc}, {"Ts", in.Ts}, {"frame_length", in.FrameLength}} {
		if d.v <= 0 || math.IsNaN(d.v) || math.IsInf(d.v, 0) {
			return fmt.Errorf("sim: %s=%v must be a positive finite duration", d.name, d.v)
		}
	}
	if in.ErrorProb != nil {
		if len(in.ErrorProb) != in.N {
			return fmt.Errorf("sim: %d error probabilities for N=%d", len(in.ErrorProb), in.N)
		}
		for i, p := range in.ErrorProb {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return fmt.Errorf("sim: station %d: error probability %v outside [0, 1]", i, p)
			}
		}
	}
	if in.PerStation != nil {
		if len(in.PerStation) != in.N {
			return fmt.Errorf("sim: %d per-station configs for N=%d", len(in.PerStation), in.N)
		}
		for i, p := range in.PerStation {
			if err := p.Validate(); err != nil {
				return fmt.Errorf("sim: station %d: %w", i, err)
			}
		}
		return nil
	}
	return in.Params.Validate()
}

// stationParams returns station i's configuration.
func (in Inputs) stationParams(i int) config.Params {
	if in.PerStation != nil {
		return in.PerStation[i]
	}
	return in.Params
}

// Result carries the simulator outputs. CollisionProbability and
// NormalizedThroughput are defined exactly as in the paper's code:
//
//	collision_pr    = collisions / (collisions + succ_transmissions)
//	norm_throughput = succ_transmissions · frame_length / t
//
// where "collisions" counts the colliding *stations* of each collision
// event (a 3-way collision adds 3), matching the per-station frame
// counters the testbed measures. With a channel error model installed
// (Inputs.ErrorProb) the attempt denominator additionally includes the
// errored frames — the ΣAᵢ estimator of Section 3.2 counts them, since
// the destination acknowledges errored frames too; with the paper's
// error-free channel the definitions coincide exactly.
type Result struct {
	Inputs Inputs

	CollisionProbability float64
	NormalizedThroughput float64

	// Successes is the number of successful transmissions.
	Successes int64
	// CollidedFrames is the number of collided frames (station-events).
	CollidedFrames int64
	// CollisionEvents is the number of collision busy-periods.
	CollisionEvents int64
	// FrameErrors is the number of frames lost to channel errors —
	// single-transmitter busy periods whose frame the channel corrupted
	// (always 0 with the paper's error-free channel).
	FrameErrors int64
	// IdleSlots is the number of empty contention slots.
	IdleSlots int64
	// Elapsed is the simulated time actually consumed (µs); it may
	// exceed SimTime by up to one busy period, as in the original loop.
	Elapsed float64

	// PerStation holds each station's counters, indexed by station.
	PerStation []StationStats

	// Controls holds the run's martingale control variates (realized −
	// expected per channel, ControlNames order) when the engine ran with
	// EnableControls; nil otherwise. Each entry has exactly zero
	// expectation under the run's random draws — see control.go.
	Controls []float64
}

// StationStats are the per-station counters the emulated testbed also
// exposes through its MME interface: with an ideal channel, Acked =
// Successes + Collided because the 1901 destination acknowledges even a
// collided frame (with an all-blocks-errored indication), which is the
// report's key observation about the ΣAᵢ statistic.
type StationStats struct {
	Successes int64
	Collided  int64
	// Errored counts frames this station lost to channel errors (no
	// collision: the station transmitted alone and the channel corrupted
	// the frame).
	Errored   int64
	Attempts  int64
	Deferrals int64
	Redraws   int64
}

// Acked returns the acknowledged-frame counter as the INT6300 firmware
// reports it: collided and channel-errored frames are included, because
// the destination decodes the robust preamble and acknowledges them
// with an all-blocks-errored indication.
func (s StationStats) Acked() int64 { return s.Successes + s.Collided + s.Errored }

// Observer receives the simulator's events. All callbacks run on the
// simulation goroutine; implementations must not retain the snapshot
// slice, which is reused between events.
type Observer interface {
	// OnSlot is called once per medium event, before state advances.
	// kind describes the event; txs lists the transmitting stations
	// (nil for idle); t is the simulated time at the event's start;
	// snaps holds each station's counters entering the event.
	OnSlot(t float64, kind SlotKind, txs []int, snaps []backoff.Snapshot)
}

// SlotKind classifies a medium event.
type SlotKind int

const (
	// Idle: no station transmitted; one 35.84 µs slot elapses.
	Idle SlotKind = iota
	// Success: exactly one station transmitted; Ts elapses.
	Success
	// Collision: two or more stations transmitted; Tc elapses.
	Collision
	// FrameError: exactly one station transmitted, but the channel
	// corrupted the frame (Inputs.ErrorProb); the medium is busy for Ts
	// like a success, the transmission fails like a collision. Never
	// seen with the paper's error-free channel.
	FrameError
)

// String names the slot kind.
func (k SlotKind) String() string {
	switch k {
	case Idle:
		return "idle"
	case Success:
		return "success"
	case Collision:
		return "collision"
	case FrameError:
		return "error"
	default:
		return fmt.Sprintf("SlotKind(%d)", int(k))
	}
}

// Engine runs N 1901 backoff processes over the shared slotted medium.
//
// The stations' backoff machines live in flat per-station arrays — the
// counters BC, DC and BPC of backoff.Station, each station's stage
// tables, its random stream and its redraw counters — so one busy
// period costs one fused pass over the arrays rather than a method call
// per station. The machine is backoff.Station's exactly (the package's
// tests drive the Station-based loop as a reference oracle and require
// identical Results and observer streams).
//
// The medium loop is event-driven over idle time: after a busy period
// the next min(BC) slots are provably idle and consume no randomness,
// so the engine advances the clock across them (one SlotTime addition
// per slot, keeping the float accumulation bit-identical to stepping)
// and folds the run into the next busy pass as a lazy offset on every
// BC. With an Observer installed the same loop stops at each idle slot
// to report it; both modes produce bit-identical Results.
type Engine struct {
	in Inputs

	// Station i's backoff state: bc[i], dc[i] and bpc[i] are its BC, DC
	// and BPC; stage s of its schedule uses cwTab[base[i]+s] and
	// dcTab[base[i]+s], s ≤ last[i].
	bc, dc, bpc        []int
	base, last         []int
	cwTab, dcTab       []int
	src                []rng.Source // per-station backoff streams
	redraws, deferrals []int64

	errSrc   []rng.Source // per-station channel-error streams (drawn only where ErrorProb > 0)
	txs      []int
	snaps    []backoff.Snapshot
	observer Observer
	ctrl     *controller // non-nil after EnableControls (see control.go)
}

// errStreamBase labels the per-station channel-error streams split off
// the root rng. It is far above any realistic station index, so error
// streams never collide with the backoff streams Split(i) and enabling
// errors leaves every backoff draw untouched.
const errStreamBase = uint64(1) << 32

// NewEngine builds a 1901 engine from validated inputs.
func NewEngine(in Inputs) (*Engine, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := in.N
	stages := 0
	for i := 0; i < n; i++ {
		stages += len(in.stationParams(i).CW)
	}
	// One backing array holds the per-station counters and the stage
	// tables, another the redraw counters.
	ints := make([]int, 5*n+2*stages)
	carve := func(k int) []int {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	counts := make([]int64, 2*n)
	root := rng.New(in.Seed)
	e := &Engine{
		in:        in,
		bc:        carve(n),
		dc:        carve(n),
		bpc:       carve(n),
		base:      carve(n),
		last:      carve(n),
		cwTab:     carve(stages),
		dcTab:     carve(stages),
		src:       make([]rng.Source, n),
		redraws:   counts[:n:n],
		deferrals: counts[n:],
		txs:       make([]int, 0, n),
		snaps:     make([]backoff.Snapshot, n),
	}
	at := 0
	for i := 0; i < n; i++ {
		p := in.stationParams(i)
		e.base[i] = at
		e.last[i] = len(p.CW) - 1
		copy(e.cwTab[at:], p.CW)
		copy(e.dcTab[at:], p.DC)
		at += len(p.CW)
		e.src[i] = *root.Split(uint64(i))
	}
	if in.ErrorProb != nil {
		e.errSrc = make([]rng.Source, n)
		for i, p := range in.ErrorProb {
			if p > 0 {
				e.errSrc[i] = *root.Split(errStreamBase + uint64(i))
			}
		}
	}
	return e, nil
}

// SetObserver installs a trace observer; pass nil to remove it.
func (e *Engine) SetObserver(o Observer) { e.observer = o }

// Snapshot returns station i's backoff counters, for inspection in
// tests and traces.
func (e *Engine) Snapshot(i int) backoff.Snapshot { return e.snapshot(i, 0) }

// snapshot returns station i's counters while an idle run of off slots
// is still pending on bc. A station's contention window is the one of
// its current stage (backoff.Station.Stage), so it is derived, not
// stored.
func (e *Engine) snapshot(i, off int) backoff.Snapshot {
	stage := 0
	if e.bpc[i] > 0 {
		stage = min(e.bpc[i]-1, e.last[i])
	}
	return backoff.Snapshot{
		CW:    e.cwTab[e.base[i]+stage],
		DC:    e.dc[i],
		BC:    e.bc[i] - off,
		BPC:   e.bpc[i],
		Stage: stage,
	}
}

// window returns station i's contention window at the stage a redraw
// with backoff procedure counter bpc enters.
func (e *Engine) window(i, bpc int) int { return e.cwTab[e.base[i]+min(bpc, e.last[i])] }

// redraw enters the stage addressed by bpc: it loads the stage's
// deferral counter, advances BPC and returns a fresh backoff counter
// drawn from station i's own stream (backoff.Station's redraw).
func (e *Engine) redraw(i, bpc int) int {
	idx := e.base[i] + min(bpc, e.last[i])
	e.dc[i] = e.dcTab[idx]
	e.bpc[i] = bpc + 1
	e.redraws[i]++
	return e.src[i].Backoff(e.cwTab[idx])
}

// Run executes the simulation until SimTime elapses and returns the
// aggregated result. Run may be called once per Engine.
func (e *Engine) Run() Result {
	res := Result{Inputs: e.in, PerStation: make([]StationStats, e.in.N)}

	// The first cycle's draws happen below; its conditional expectation
	// must be captured before they do.
	if e.ctrl != nil {
		e.ctrl.predictInitial()
	}
	m := math.MaxInt
	for i := range e.bc {
		e.bc[i] = e.redraw(i, 0)
		m = min(m, e.bc[i])
	}

	simTime, observed := e.in.SimTime, e.observer != nil
	var t float64
	k := 0 // idle slots elapsed since the last busy period, pending on bc
	for t <= simTime {
		// The next m slots are idle: every station defers until its BC
		// runs out. Time advances one slot at a time (the horizon may
		// cut the run), but the counters wait for the next busy pass.
		for k = 0; k < m && t <= simTime; k++ {
			if observed {
				e.observe(t, Idle, k)
			}
			t += timing.SlotTime
		}
		res.IdleSlots += int64(k)
		if t > simTime {
			break
		}
		var d float64
		d, m = e.busy(&res, t, k)
		t += d
		k = 0
	}

	res.Elapsed = t
	for i := range e.bc {
		e.bc[i] -= k
		res.PerStation[i].Deferrals = e.deferrals[i]
		res.PerStation[i].Redraws = e.redraws[i]
	}
	attempts := res.CollidedFrames + res.Successes + res.FrameErrors
	if attempts > 0 {
		res.CollisionProbability = float64(res.CollidedFrames) / float64(attempts)
	}
	res.NormalizedThroughput = float64(res.Successes) * e.in.FrameLength / t
	if e.ctrl != nil {
		e.ctrl.finish(&res)
	}
	return res
}

// busy runs the busy period starting at t, after an idle run of off
// slots still pending on bc: the stations whose BC that run drained
// transmit. It records the outcome and returns the period's duration
// and the length of the idle run that follows (the new min BC).
//
// Every station's machine advances in one fused pass, following
// backoff.Station.AfterBusy: a successful transmitter restarts at stage
// 0; a station that transmitted or whose deferral counter ran out
// redraws from its own stream (in station order, as the Station loop
// draws); every other station pays one slot on both counters.
//
//plclint:noalloc
func (e *Engine) busy(res *Result, t float64, off int) (float64, int) {
	// Branch-free (a conditional move): every index is written, only
	// transmitters advance the count.
	txs, c := e.txs[:len(e.bc)], 0
	for i, b := range e.bc {
		txs[c] = i
		if b == off {
			c++
		}
	}
	e.txs = txs[:c]

	kind := Collision
	if len(e.txs) == 1 {
		kind = Success
		// Channel error: the lone transmission is lost without a
		// collision. Decided before the observer fires so traces see
		// the true slot kind; the draw comes from a dedicated stream,
		// never the backoff streams, and only single-transmitter events
		// consume it.
		if w, ep := e.txs[0], e.in.ErrorProb; ep != nil && ep[w] > 0 && e.errSrc[w].Bernoulli(ep[w]) {
			kind = FrameError
		}
	}
	if e.observer != nil {
		e.observe(t, kind, off)
	}

	winner := -1
	d := e.in.Ts
	switch kind {
	case Success:
		winner = e.txs[0]
		res.Successes++
		res.PerStation[winner].Successes++
		res.PerStation[winner].Attempts++
	case FrameError:
		// The medium is busy for Ts either way (the frame was sent; the
		// loss happens at the receiver), but the transmitter's ACK
		// carries the all-blocks-errored indication, so its backoff
		// advances to the next stage like a failure.
		w := e.txs[0]
		res.FrameErrors++
		res.PerStation[w].Errored++
		res.PerStation[w].Attempts++
	case Collision:
		d = e.in.Tc
		res.CollisionEvents++
		res.CollidedFrames += int64(len(e.txs))
		for _, i := range e.txs {
			res.PerStation[i].Collided++
			res.PerStation[i].Attempts++
		}
	}
	if e.ctrl != nil {
		e.predictNext(t+d, winner, off)
	}

	if winner >= 0 {
		e.bpc[winner] = 0
	}
	m := math.MaxInt
	for i, b := range e.bc {
		b -= off
		switch {
		case b == 0:
			b = e.redraw(i, e.bpc[i])
		case e.dc[i] == 0:
			// Deferral: sensed busy with DC exhausted → next stage, no
			// transmission attempt.
			e.deferrals[i]++
			b = e.redraw(i, e.bpc[i])
		default:
			b--
			e.dc[i]--
		}
		e.bc[i] = b
		m = min(m, b)
	}
	return d, m
}

// observe reports one medium event to the observer, with every
// station's counters as they stand entering it (off idle slots pending).
func (e *Engine) observe(t float64, kind SlotKind, off int) {
	for i := range e.snaps {
		e.snaps[i] = e.snapshot(i, off)
	}
	txs := e.txs
	if kind == Idle {
		txs = txs[:0]
	}
	e.observer.OnSlot(t, kind, txs, e.snaps)
}

// Sim1901 reproduces the published sim_1901 entry point: it builds an
// engine and returns (collision probability, normalized throughput),
// exactly the two outputs of the MATLAB function.
func Sim1901(n int, simTime, tc, ts, frameLength float64, cw, dc []int, seed uint64) (collisionPr, normThroughput float64, err error) {
	in := Inputs{
		N: n, SimTime: simTime, Tc: tc, Ts: ts, FrameLength: frameLength,
		Params: config.Params{Name: "custom", CW: cw, DC: dc},
		Seed:   seed,
	}
	e, err := NewEngine(in)
	if err != nil {
		return 0, 0, err
	}
	r := e.Run()
	return r.CollisionProbability, r.NormalizedThroughput, nil
}
