package traffic

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestSaturatedAlwaysPending(t *testing.T) {
	var s Saturated
	for _, now := range []float64{0, 1, 1e9} {
		if !s.Pending(now) {
			t.Fatalf("saturated source not pending at %v", now)
		}
		if got := s.NextArrival(now); got != now {
			t.Fatalf("NextArrival(%v) = %v, want now", now, got)
		}
		s.Take(now) // must never panic
	}
	if s.Name() != "saturated" {
		t.Errorf("Name() = %q", s.Name())
	}
}

func TestPoissonValidation(t *testing.T) {
	for _, mean := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPoisson(%v) accepted", mean)
				}
			}()
			NewPoisson(mean, rng.New(1))
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewPoisson(nil rng) accepted")
			}
		}()
		NewPoisson(100, nil)
	}()
}

func TestPoissonArrivalRate(t *testing.T) {
	const mean = 1000.0
	p := NewPoisson(mean, rng.New(42))
	const horizon = 1e7
	// Count arrivals by draining the backlog at the horizon.
	n := 0
	for p.Pending(horizon) {
		p.Take(horizon)
		n++
	}
	want := horizon / mean
	if math.Abs(float64(n)-want)/want > 0.05 {
		t.Errorf("%d arrivals in %v µs, want ≈%v", n, horizon, want)
	}
}

func TestPoissonPendingMonotone(t *testing.T) {
	p := NewPoisson(500, rng.New(7))
	if p.Pending(0) {
		t.Error("pending at t=0 before any arrival can occur")
	}
	next := p.NextArrival(0)
	if next <= 0 || math.IsInf(next, 0) {
		t.Fatalf("NextArrival(0) = %v", next)
	}
	if !p.Pending(next) {
		t.Error("not pending exactly at the announced arrival time")
	}
	if got := p.NextArrival(next); got != next {
		t.Errorf("NextArrival with backlog = %v, want %v (now)", got, next)
	}
}

func TestPoissonTakeEmptyPanics(t *testing.T) {
	p := NewPoisson(1e12, rng.New(1)) // arrivals effectively never
	defer func() {
		if recover() == nil {
			t.Error("Take with empty backlog did not panic")
		}
	}()
	p.Take(0)
}

func TestPoissonBacklogCounts(t *testing.T) {
	p := NewPoisson(100, rng.New(11))
	const now = 10000.0
	depth := p.Backlog(now)
	if depth < 50 || depth > 200 {
		t.Errorf("backlog at t=10000 with mean 100 = %d, want ≈100", depth)
	}
	p.Take(now)
	if got := p.Backlog(now); got != depth-1 {
		t.Errorf("backlog after Take = %d, want %d", got, depth-1)
	}
}

func TestPoissonName(t *testing.T) {
	p := NewPoisson(250, rng.New(1))
	if p.Name() != "poisson(mean=250µs)" {
		t.Errorf("Name() = %q", p.Name())
	}
}

func TestNoneSource(t *testing.T) {
	var n None
	if n.Pending(1e9) {
		t.Error("None pending")
	}
	if !math.IsInf(n.NextArrival(0), 1) {
		t.Error("None has an arrival")
	}
	if n.Name() != "none" {
		t.Errorf("Name() = %q", n.Name())
	}
	defer func() {
		if recover() == nil {
			t.Error("None.Take did not panic")
		}
	}()
	n.Take(0)
}

func TestPoissonDeterminism(t *testing.T) {
	a := NewPoisson(300, rng.New(5))
	b := NewPoisson(300, rng.New(5))
	for now := 0.0; now < 1e6; now += 1e5 {
		if a.Backlog(now) != b.Backlog(now) {
			t.Fatal("identical Poisson sources diverged")
		}
	}
}

// eagerPoisson is the reference the lazy Poisson must agree with: it
// pulls every arrival up to now on every call.
type eagerPoisson struct {
	mean    float64
	src     *rng.Source
	next    float64
	backlog int
}

func newEagerPoisson(mean float64, src *rng.Source) *eagerPoisson {
	return &eagerPoisson{mean: mean, src: src, next: src.Exponential(mean)}
}

func (p *eagerPoisson) pull(now float64) {
	for p.next <= now {
		p.backlog++
		p.next += p.src.Exponential(p.mean)
	}
}

func (p *eagerPoisson) Pending(now float64) bool { p.pull(now); return p.backlog > 0 }

func (p *eagerPoisson) Take(now float64) { p.pull(now); p.backlog-- }

func (p *eagerPoisson) NextArrival(now float64) float64 {
	p.pull(now)
	if p.backlog > 0 {
		return now
	}
	return p.next
}

func (p *eagerPoisson) Backlog(now float64) int { p.pull(now); return p.backlog }

// drawsUpTo returns how many inter-arrival times a source seeded like
// src has drawn once its pending arrival is next.
func drawsUpTo(mean float64, src *rng.Source, next float64) int {
	t := src.Exponential(mean)
	draws := 1
	for t < next {
		t += src.Exponential(mean)
		draws++
	}
	return draws
}

// TestLazyPoissonMatchesEager drives random Pending/Take/NextArrival/
// Backlog sequences on the lazy source and on the eager reference,
// from underloaded to heavily overloaded, and requires identical
// answers and final backlogs.
func TestLazyPoissonMatchesEager(t *testing.T) {
	gen := rng.New(77)
	for c := 0; c < 400; c++ {
		mean := 10 + gen.Float64()*2_000
		seed := uint64(c + 1)
		lazy := NewPoisson(mean, rng.New(seed))
		eager := newEagerPoisson(mean, rng.New(seed))
		takeBias := gen.Float64() // share of calls that serve a frame
		now := 0.0
		for op := 0; op < 500; op++ {
			if gen.Intn(4) != 0 { // some calls repeat the same instant
				now += gen.Float64() * 2 * mean
			}
			switch k := gen.Intn(20); {
			case k < 9:
				if g, w := lazy.Pending(now), eager.Pending(now); g != w {
					t.Fatalf("case %d op %d: Pending(%v) = %v, eager %v", c, op, now, g, w)
				}
			case k < 18:
				if g, w := lazy.NextArrival(now), eager.NextArrival(now); g != w {
					t.Fatalf("case %d op %d: NextArrival(%v) = %v, eager %v", c, op, now, g, w)
				}
			default:
				if g, w := lazy.Backlog(now), eager.Backlog(now); g != w {
					t.Fatalf("case %d op %d: Backlog(%v) = %d, eager %d", c, op, now, g, w)
				}
			}
			if gen.Float64() < takeBias && eager.Pending(now) {
				lazy.Take(now)
				eager.Take(now)
			}
		}
		if g, w := lazy.Backlog(now), eager.Backlog(now); g != w {
			t.Fatalf("case %d: final Backlog = %d, eager %d", c, g, w)
		}
	}
}

// TestLazyPoissonOverloadDrawsLess serves an overloaded source — ten
// arrivals per served frame — through Pending/Take/NextArrival only,
// and checks that it drew far fewer inter-arrival times than arrivals
// occurred, while Backlog still counts every arrival.
func TestLazyPoissonOverloadDrawsLess(t *testing.T) {
	const mean, horizon = 100.0, 1e6
	p := NewPoisson(mean, rng.New(5))
	eager := newEagerPoisson(mean, rng.New(5))
	served := 0
	for now := 0.0; now < horizon; now += 10 * mean {
		if p.NextArrival(now) == now && p.Pending(now) {
			p.Take(now)
			eager.Take(now)
			served++
		}
	}
	draws := drawsUpTo(mean, rng.New(5), p.next)
	arrivals := served + eager.Backlog(horizon)
	if draws >= arrivals/2 {
		t.Errorf("overloaded source drew %d inter-arrival times for %d arrivals (%d served)", draws, arrivals, served)
	}
	if got := p.Backlog(horizon); got != arrivals-served {
		t.Errorf("Backlog = %d, want %d", got, arrivals-served)
	}
}
