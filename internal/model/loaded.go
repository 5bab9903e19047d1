package model

import (
	"fmt"
	"math"

	"repro/internal/config"
)

// LoadedGroup is one station group under the extended fixed point: the
// heterogeneous decoupling model widened with an offered load (Poisson
// arrivals or silence instead of saturation) and a channel-access
// priority class.
type LoadedGroup struct {
	Group
	// Priority is the group's 1901 channel-access class. Stations never
	// contend across classes: the priority-resolution phase elects the
	// highest class with pending traffic and only its members run the
	// backoff process.
	Priority config.Priority
	// Saturated marks an always-backlogged group (availability 1).
	Saturated bool
	// ArrivalRate is the per-station Poisson arrival rate λ in frames
	// per µs for an unsaturated group. Zero with Saturated false means
	// the group is silent (availability 0); delivered frames are
	// retried until successful, so a stable station's delivery rate is
	// exactly λ.
	ArrivalRate float64
}

// silent reports whether the group never offers traffic.
func (g LoadedGroup) silent() bool { return !g.Saturated && g.ArrivalRate == 0 }

// ClassSolution is the fixed point of one priority class, solved over
// the fraction of wall-clock time the class can access the medium.
type ClassSolution struct {
	// Priority is the class this solution describes.
	Priority config.Priority
	// Share is F_c: the fraction of wall-clock time no strictly higher
	// class has pending traffic, i.e. the fraction the priority
	// resolution phase awards to this class. The highest present class
	// has Share 1; a class below a saturated one has Share 0.
	Share float64
	// Starved is true when Share is 0 and the class offers traffic it
	// can never send: its stations stay backlogged forever and every
	// rate below is exactly zero.
	Starved bool
	// GroupIndex maps the per-group slices below back to positions in
	// the SolveLoaded input.
	GroupIndex []int
	// Tau is the per-slot attempt probability of a backlogged station,
	// per group; Availability the probability the station is backlogged
	// at a slot boundary (1 for saturated, 0 for silent groups); Gamma
	// the conditional collision probability against the effective
	// attempt rates Availability·Tau.
	Tau, Availability, Gamma []float64
	// Met holds the class's per-virtual-slot rates and timing, measured
	// in the class's own medium time (multiply rates/E[σ] by Share to
	// get wall-clock rates). Zero-valued when Starved.
	Met HeteroMetrics
	// Iterations used by the class solver.
	Iterations int
}

// LoadedSolution is the joint fixed point over every priority class.
type LoadedSolution struct {
	// Classes holds one solution per present class, highest priority
	// first (the order they were solved in).
	Classes []ClassSolution
}

// ClassFor returns the solution for a class, or nil when the input had
// no group of that class.
func (s *LoadedSolution) ClassFor(p config.Priority) *ClassSolution {
	for i := range s.Classes {
		if s.Classes[i].Priority == p {
			return &s.Classes[i]
		}
	}
	return nil
}

// guardEvery and guardIterations shape the extrapolation guard that
// takes over once a class's damped (τ, a) iteration has spent
// maxIterations steps: near a fold of the availability map (a jumping
// from well below 1 to 1 under a tiny load change) the damped map
// contracts at a rate ρ close to 1 and the plain loop can need several
// times the cap. Every guardEvery steps past the cap the guard
// measures ρ from two consecutive step norms and, when the steps are
// shrinking, jumps to the geometric limit of the remaining steps; after
// guardIterations more steps the class reports ErrNoConvergence. Inputs
// that converge within the cap never reach it, so their output is the
// plain damped iteration's bit for bit.
const (
	guardEvery      = 50
	guardIterations = 2000
)

// SolveLoaded solves the 1901 decoupling fixed point for station
// groups that may be saturated, Poisson-loaded or silent, in strict
// priority classes.
//
// Each group's station solves the renewal-reward equation for τ against
// a busy probability composed from every other station's effective
// attempt rate:
//
//	γ_i = 1 − (1−a_i·τ_i)^(n_i−1) · Π_{j≠i} (1−a_j·τ_j)^(n_j)
//
// where a is the group's attempt availability: the chance a station has
// a frame pending at a slot boundary. Saturated groups hold a = 1 (the
// classic heterogeneous model, and with one group the homogeneous one),
// silent groups a = 0, and a loaded group's a is pinned by flow
// conservation — a backlogged station delivers τ(1−γ)(1−e) frames per
// virtual slot of mean duration E[σ], so
// a = min(1, λ·E[σ]/(τ(1−γ)(1−e))). The joint fixed point in (τ, a) is
// solved by one damped simultaneous iteration; a lone saturated station
// sees an idle medium and gets the exact p = 0 solution instead.
//
// Across classes, the priority-resolution phase is strict: a lower
// class transmits only while no higher-class station is backlogged.
// Under the decoupling assumption that fraction is
// F_c = Π over higher-class groups (1−a)^N, so each class solves its
// own fixed point over its share of the timeline with arrival rates
// scaled by 1/F_c; a saturated (or overloaded) higher class starves
// everything below it to exactly zero, matching the event-driven MAC's
// frozen-backoff semantics.
func SolveLoaded(groups []LoadedGroup, tm Timing) (*LoadedSolution, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("model: no groups")
	}
	for i, g := range groups {
		if g.N < 1 {
			return nil, fmt.Errorf("model: group %d has N=%d", i, g.N)
		}
		if err := g.Params.Validate(); err != nil {
			return nil, fmt.Errorf("model: group %d: %w", i, err)
		}
		if g.ErrorProb < 0 || g.ErrorProb > 1 || math.IsNaN(g.ErrorProb) {
			return nil, fmt.Errorf("model: group %d: error probability %v outside [0, 1]", i, g.ErrorProb)
		}
		if !g.Priority.Valid() {
			return nil, fmt.Errorf("model: group %d: invalid priority %v", i, g.Priority)
		}
		if g.ArrivalRate < 0 || math.IsNaN(g.ArrivalRate) || math.IsInf(g.ArrivalRate, 0) {
			return nil, fmt.Errorf("model: group %d: arrival rate %v must be ≥ 0 and finite", i, g.ArrivalRate)
		}
		if g.Saturated && g.ArrivalRate > 0 {
			return nil, fmt.Errorf("model: group %d: saturated groups carry no arrival rate", i)
		}
	}

	// Walk the classes highest priority first: higher classes are
	// oblivious to lower ones, so they solve first and hand their
	// occupancies down.
	out := &LoadedSolution{}
	share := 1.0
	for pri := int(config.CA3); pri >= int(config.CA0); pri-- {
		var idx []int
		for i, g := range groups {
			if int(g.Priority) == pri {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		cs, err := solveClass(config.Priority(pri), idx, groups, share, tm)
		if err != nil {
			return nil, err
		}
		out.Classes = append(out.Classes, cs)
		// This class's occupancy shrinks the share of every class below.
		for k, gi := range idx {
			if occ := cs.Availability[k]; occ > 0 {
				share *= math.Pow(1-occ, float64(groups[gi].N))
			}
		}
	}
	return out, nil
}

// solveClass computes one class's fixed point over its wall-clock share.
func solveClass(pri config.Priority, idx []int, groups []LoadedGroup, share float64, tm Timing) (ClassSolution, error) {
	k := len(idx)
	cs := ClassSolution{
		Priority:     pri,
		Share:        share,
		GroupIndex:   append([]int(nil), idx...),
		Tau:          make([]float64, k),
		Availability: make([]float64, k),
		Gamma:        make([]float64, k),
	}

	if share <= 0 {
		// Starved by a saturated class above: the class never reaches
		// the medium. Loaded stations stay backlogged forever
		// (occupancy 1, so everything below starves too); every rate is
		// exactly zero.
		cs.Starved = true
		for i, gi := range idx {
			if !groups[gi].silent() {
				cs.Availability[i] = 1
			}
		}
		cs.Met = HeteroMetrics{
			GroupThroughput:      make([]float64, k),
			PerStationThroughput: make([]float64, k),
		}
		return cs, nil
	}

	plain := make([]Group, k)
	for i, gi := range idx {
		plain[i] = groups[gi].Group
	}

	if k == 1 && plain[0].N == 1 && groups[idx[0]].Saturated {
		// A lone saturated station sees an idle medium: p = 0 exactly
		// (the damped iteration would only approach it geometrically).
		cs.Tau[0] = tauGivenSucc(plain[0].Params, 0, 1-plain[0].ErrorProb)
		cs.Availability[0] = 1
		cs.Met = heteroMetrics(cs.Tau, cs.Gamma, plain, tm)
		return cs, nil
	}

	tau, avail := cs.Tau, cs.Availability
	for i, gi := range idx {
		tau[i] = 0.1
		if !groups[gi].silent() {
			avail[i] = 1 // saturated groups hold it; loaded ones relax downward
		}
	}

	eff := make([]float64, k) // a·τ, the effective per-slot attempt rates
	gam := cs.Gamma
	nextTau := make([]float64, k)
	nextAvail := make([]float64, k)
	var prevDelta float64
	for it := 1; it <= maxIterations+guardIterations; it++ {
		for i := range idx {
			eff[i] = avail[i] * tau[i]
		}
		es := 0.0
		{
			// Slot-state composition under the effective attempt rates.
			pIdle := 1.0
			for i, gi := range idx {
				pIdle *= math.Pow(1-eff[i], float64(groups[gi].N))
			}
			var pSingle float64
			for i, gi := range idx {
				gam[i] = gammaOf(eff, plain, i)
				pSingle += float64(groups[gi].N) * eff[i] * (1 - gam[i])
			}
			pColl := 1 - pIdle - pSingle
			if pColl < 0 {
				pColl = 0
			}
			es = pIdle*tm.Slot + pSingle*tm.Ts + pColl*tm.Tc
		}

		var maxDelta float64
		for i, gi := range idx {
			g := groups[gi]
			v := tauGivenSucc(g.Params, gam[i], (1-gam[i])*(1-g.ErrorProb))
			nextTau[i] = tau[i] + damping*(v-tau[i])
			if d := math.Abs(nextTau[i] - tau[i]); d > maxDelta {
				maxDelta = d
			}

			nextAvail[i] = avail[i]
			if !g.Saturated && !g.silent() {
				// Flow conservation: while backlogged the station
				// completes τ(1−γ)(1−e) frames per slot of E[σ] µs, so
				// its queue is busy the fraction λ·E[σ]/service — scaled
				// by 1/Share because only that fraction of wall-clock
				// time belongs to this class — clamped at 1 (overload:
				// the station saturates).
				serv := tau[i] * (1 - gam[i]) * (1 - g.ErrorProb)
				target := 1.0
				if serv > 0 {
					target = g.ArrivalRate / share * es / serv
					if target > 1 {
						target = 1
					}
				}
				nextAvail[i] = avail[i] + damping*(target-avail[i])
				if d := math.Abs(nextAvail[i] - avail[i]); d > maxDelta {
					maxDelta = d
				}
			}
		}
		if it > maxIterations && (it-maxIterations)%guardEvery == 0 && maxDelta < prevDelta {
			// Past the cap the steps shrink geometrically at ρ: jump to
			// the limit x + Δ·ρ/(1−ρ) of the remaining steps, keeping
			// each availability a probability.
			r := maxDelta / prevDelta
			f := r / (1 - r)
			for i := range idx {
				nextTau[i] += f * (nextTau[i] - tau[i])
				nextAvail[i] = math.Min(1, math.Max(0, nextAvail[i]+f*(nextAvail[i]-avail[i])))
			}
		}
		prevDelta = maxDelta
		copy(tau, nextTau)
		copy(avail, nextAvail)
		if maxDelta < tolerance {
			for i := range idx {
				eff[i] = avail[i] * tau[i]
			}
			for i := range idx {
				gam[i] = gammaOf(eff, plain, i)
			}
			cs.Met = heteroMetrics(eff, gam, plain, tm)
			cs.Iterations = it
			return cs, nil
		}
	}
	return ClassSolution{}, fmt.Errorf("model: class %s: %w", pri, ErrNoConvergence)
}
