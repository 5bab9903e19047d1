package model

import (
	"fmt"
	"math"

	"repro/internal/config"
)

// SolveDCF computes the Bianchi-style fixed point for N saturated
// 802.11 DCF stations: the same renewal-reward construction as the 1901
// model with the deferral mechanism removed, so the two protocols are
// modeled under identical assumptions (slotted time, busy slots count
// one decrement, infinite retry).
//
// A DCF stage visit with window W consumes on average (W−1)/2 backoff
// slots plus one transmission slot and always ends in an attempt, so
// x_i = 1 and E[T_i] = (W_i−1)/2 + 1.
func SolveDCF(n int, cfg config.DCF) (Prediction, error) {
	if n < 1 {
		return Prediction{}, fmt.Errorf("model: N=%d must be ≥ 1", n)
	}
	if err := cfg.Validate(); err != nil {
		return Prediction{}, err
	}

	m := cfg.Stages()
	slotsAt := func(i int) float64 { return float64(cfg.Window(i)-1)/2 + 1 }

	tauGivenGamma := func(gamma float64) float64 {
		// Visit rates: v_0 = 1; v_i = γ^i for i < m−1; the last stage
		// absorbs the tail: v_{m−1} = γ^{m−1}/(1−γ).
		v := make([]float64, m)
		v[0] = 1
		for i := 1; i < m; i++ {
			v[i] = v[i-1] * gamma
		}
		if m > 1 && gamma < 1 {
			v[m-1] /= 1 - gamma
		}
		var num, den float64
		for i := 0; i < m; i++ {
			num += v[i] // one attempt per visit
			den += v[i] * slotsAt(i)
		}
		return num / den
	}

	if n == 1 {
		return Prediction{Tau: tauGivenGamma(0)}, nil
	}

	gammaOf := func(tau float64) float64 { return 1 - math.Pow(1-tau, float64(n-1)) }

	tau := 0.1
	for it := 1; it <= maxIterations; it++ {
		newTau := tau + damping*(tauGivenGamma(gammaOf(tau))-tau)
		if math.Abs(newTau-tau) < tolerance {
			return Prediction{Tau: newTau, Gamma: gammaOf(newTau), Iterations: it}, nil
		}
		tau = newTau
	}
	return Prediction{}, ErrNoConvergence
}
