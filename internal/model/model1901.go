package model

import (
	"errors"
	"math"

	"repro/internal/config"
	"repro/internal/timing"
)

// StageQuantities are the per-backoff-stage ingredients of the model for
// a given medium-busy probability p: the probability that a visit to the
// stage ends with a transmission attempt (as opposed to a deferral jump)
// and the expected number of virtual slots a visit consumes.
type StageQuantities struct {
	// Attempt is x_i = P(the station's backoff expires before its
	// deferral counter forces a jump) = E_b[P(Bin(b, p) ≤ d_i)] with b
	// uniform in {0,…,CW_i−1}.
	Attempt float64
	// Slots is E[T_i]: expected virtual slots per visit, counting the
	// transmission slot when attempting and the jump-triggering busy
	// slot when deferring.
	Slots float64
}

// Stage computes the quantities for one stage: contention window w,
// initial deferral counter d, medium-busy probability p.
//
// Derivation (matching the published simulator's semantics exactly):
// after the redraw the station holds BC = b ~ U{0,…,w−1} and DC = d.
// Every observed virtual slot is busy independently with probability p.
// A busy slot observed while DC = 0 causes a jump; otherwise a busy slot
// decrements both counters and an idle slot decrements BC only. Hence
// the station attempts iff at most d of its first b observed slots are
// busy, and otherwise jumps at the (d+1)-th busy slot.
// The implementation is O(w): it advances three recurrences in b —
// T(b) = P(Bin(b,p) ≤ d) via T(b+1) = T(b) − p·P(Bin(b,p) = d),
// the pmf f(b) = P(Bin(b,p) = d) via its ratio recurrence, and the
// partial jump-cost sum S(b) = Σ_{k=d+1}^{b} k·P(first (d+1)-th busy at
// k) via the negative-binomial ratio recurrence — instead of evaluating
// each tail from scratch (stageDirect in the tests does exactly that
// and pins this implementation down).
func Stage(w, d int, p float64) StageQuantities {
	q := 1 - p
	tail := 1.0 // T(b): P(Bin(b,p) ≤ d); T(0) = 1
	var pmf float64
	if d == 0 {
		pmf = 1 // f(0) = P(Bin(0,p) = 0)
	}
	var nb, jumpSum float64 // nb(b), S(b)

	var attempt, slots float64
	for b := 0; b < w; b++ {
		if b > 0 {
			tail -= p * pmf // T(b) from T(b−1), f(b−1)
			switch {
			case b < d:
				pmf = 0
			case b == d:
				pmf = math.Pow(p, float64(d))
			default: // b > d
				pmf *= q * float64(b) / float64(b-d)
			}
			switch {
			case b == d+1:
				nb = math.Pow(p, float64(d+1))
			case b > d+1:
				nb *= q * float64(b-1) / float64(b-1-d)
			}
			if b >= d+1 {
				jumpSum += nb * float64(b)
			}
		}
		attempt += tail
		// Attempt path: b backoff slots + 1 transmission slot; jump
		// path: the (d+1)-th busy observation, which arrived at slot
		// k ≤ b, closes the stage after k slots.
		slots += tail*float64(b+1) + jumpSum
	}
	inv := 1 / float64(w)
	return StageQuantities{Attempt: attempt * inv, Slots: slots * inv}
}

// Prediction is a homogeneous fixed point: the attempt and collision
// probabilities of N identical saturated stations.
type Prediction struct {
	// Tau is the per-virtual-slot transmission attempt probability τ.
	Tau float64
	// Gamma is the conditional collision probability
	// γ = 1 − (1−τ)^(N−1); with the all-frames-acked accounting of the
	// paper's measurements this is also the predicted ΣCᵢ/ΣAᵢ.
	Gamma float64
	// Iterations used by the fixed-point solver.
	Iterations int
}

// The damped fixed-point iteration every solver runs: each step mixes
// damping of the new iterate into the old one, and the loop stops once
// no component moves by tolerance or more. Heavy damping keeps exotic
// boosting candidates convergent; every Table 1 configuration converges
// in well under a hundred steps.
const (
	damping       = 0.25
	tolerance     = 1e-12
	maxIterations = 10000
)

// ErrNoConvergence is returned when the damped iteration (and, for the
// 1901 model, its post-cap extrapolation guard) does not reach the
// tolerance.
var ErrNoConvergence = errors.New("model: fixed point did not converge")

// tauGivenSucc evaluates the renewal-reward attempt rate τ for a station
// running params against a medium busy with probability p per slot, when
// each transmission attempt succeeds (returns the station to stage 0)
// with probability succ. With an error-free channel succ = 1−γ; a
// per-frame channel error probability e folds in as succ = (1−γ)(1−e),
// since an errored frame is acknowledged with the all-blocks-errored
// indication and advances the backoff stage exactly like a collision.
//
// Stage chain: a visit to stage i ends in an attempt w.p. x_i. An
// attempt succeeds w.p. succ (→ stage 0) and fails otherwise (→ next
// stage); a deferral jump also moves to the next stage; the last stage
// re-enters itself. The chain's visit rates v solve
//
//	v_0 = Σ_i v_i·x_i·succ,  v_i = v_{i−1}·(1 − x_{i−1}·succ) (i<m−1)
//	v_{m−1} = v_{m−2}·(1−x_{m−2}·succ) / (x_{m−1}·succ)  [self-loop]
//
// and τ = Σv_i·x_i / Σv_i·E[T_i].
func tauGivenSucc(params config.Params, p, succ float64) float64 {
	m := params.Stages()
	sq := make([]StageQuantities, m)
	for i := 0; i < m; i++ {
		sq[i] = Stage(params.CW[i], params.DC[i], p)
	}

	// Unnormalized visit rates, v_0 = 1.
	v := make([]float64, m)
	v[0] = 1
	for i := 1; i < m; i++ {
		leaveToNext := 1 - sq[i-1].Attempt*succ
		v[i] = v[i-1] * leaveToNext
	}
	// The last stage self-loops with probability 1 − x_{m−1}·succ: its
	// total visit rate is the inflow divided by the escape probability.
	if m > 1 {
		escape := sq[m-1].Attempt * succ
		// v[m-1] counts only first entries per cycle; the total visit
		// rate scales by expected visits per entry, 1/escape. When the
		// station can never leave the last stage (escape = 0, or so
		// small the division overflows), the visits concentrate there
		// and the renewal-reward ratio has the defined limit
		// τ = x_{m−1}/E[T_{m−1}] — return it explicitly instead of
		// letting ±Inf/Inf produce NaN.
		if escape <= 0 || math.IsInf(v[m-1]/escape, 0) {
			return sq[m-1].Attempt / sq[m-1].Slots
		}
		v[m-1] /= escape
	}

	var num, den float64
	for i := 0; i < m; i++ {
		num += v[i] * sq[i].Attempt
		den += v[i] * sq[i].Slots
	}
	if den == 0 {
		return 1 // every stage attempts immediately (all CW = 1)
	}
	return num / den
}

// Metrics derived from a prediction for a concrete slot/frame timing.
type Metrics struct {
	// CollisionProbability is the paper's per-frame measure ΣC/ΣA = γ.
	CollisionProbability float64
	// NormalizedThroughput is successful payload time over total time.
	NormalizedThroughput float64
	// SlotIdle, SlotSuccess, SlotCollision are the per-virtual-slot
	// outcome probabilities.
	SlotIdle, SlotSuccess, SlotCollision float64
	// MeanSlotDuration is E[σ] in µs.
	MeanSlotDuration float64
	// MeanAccessDelay is the model's saturated head-of-line delay in
	// µs: a tagged station succeeds with per-slot probability τ(1−γ),
	// so it waits 1/(τ(1−γ)) virtual slots of mean duration E[σ]
	// between consecutive successful transmissions.
	MeanAccessDelay float64
}

// Timing groups the busy-period durations used to convert per-slot
// probabilities into time-based metrics.
type Timing struct {
	Slot        float64 // idle slot duration (µs)
	Ts          float64 // successful transmission duration (µs)
	Tc          float64 // collision duration (µs)
	FrameLength float64 // useful payload duration inside Ts (µs)
}

// DefaultTiming reproduces the paper's simulator invocation.
func DefaultTiming() Timing {
	return Timing{
		Slot:        timing.SlotTime,
		Ts:          timing.DefaultSuccessDuration,
		Tc:          timing.DefaultCollisionDuration,
		FrameLength: timing.DefaultFrameDuration,
	}
}

// MetricsFor converts a fixed-point prediction into time-based metrics
// for N stations with the given timing.
func MetricsFor(pred Prediction, n int, tm Timing) Metrics {
	tau := pred.Tau
	pIdle := math.Pow(1-tau, float64(n))
	pSucc := float64(n) * tau * math.Pow(1-tau, float64(n-1))
	pColl := 1 - pIdle - pSucc
	if pColl < 0 {
		pColl = 0
	}
	es := pIdle*tm.Slot + pSucc*tm.Ts + pColl*tm.Tc
	m := Metrics{
		CollisionProbability: pred.Gamma,
		SlotIdle:             pIdle,
		SlotSuccess:          pSucc,
		SlotCollision:        pColl,
		MeanSlotDuration:     es,
	}
	if es > 0 {
		m.NormalizedThroughput = pSucc * tm.FrameLength / es
	}
	if rate := tau * (1 - pred.Gamma); rate > 0 {
		m.MeanAccessDelay = es / rate
	}
	return m
}
