package backoff

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/rng"
)

// DCFStation is an 802.11 distributed-coordination-function backoff
// engine, the baseline of the 1901 comparisons.
//
// Two conventions exist for how a busy period interacts with the backoff
// counter. In the hardware, BC freezes while the medium is busy and
// resumes afterwards; in Bianchi-style slotted analyses (and in the
// paper's 1901 simulator, whose busy period also consumes one counter
// decrement), the busy period counts as a single slot. DCFStation
// supports both through the DecrementOnBusy flag so the 1901-vs-802.11
// comparison can be run under either convention; the papers' plots use
// the slotted convention (true).
type DCFStation struct {
	cfg             config.DCF
	src             *rng.Source
	DecrementOnBusy bool

	stage int
	bc    int
	fresh bool

	redraws int64
}

// NewDCFStation returns an 802.11 station with the slotted (Bianchi)
// busy-decrement convention, matching how the 1901 simulator accounts
// for busy periods.
func NewDCFStation(cfg config.DCF, src *rng.Source) *DCFStation {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("backoff: NewDCFStation: %v", err))
	}
	if src == nil {
		panic("backoff: NewDCFStation: nil rng source")
	}
	s := &DCFStation{cfg: cfg, src: src, DecrementOnBusy: true}
	s.Reset()
	return s
}

// Reset returns the station to the fresh state preceding its first draw.
func (s *DCFStation) Reset() {
	s.stage = 0
	s.bc = 0
	s.fresh = true
	s.redraws = 0
}

func (s *DCFStation) redraw() {
	s.bc = s.src.Backoff(s.cfg.Window(s.stage))
	s.fresh = false
	s.redraws++
}

// Start performs the initial stage-0 draw.
func (s *DCFStation) Start() Action {
	if !s.fresh {
		panic("backoff: DCF Start called twice without Reset")
	}
	s.redraw()
	return s.intent()
}

func (s *DCFStation) intent() Action {
	if s.bc == 0 {
		return Transmit
	}
	return Defer
}

// AfterIdle advances across one idle slot.
func (s *DCFStation) AfterIdle() Action {
	if s.fresh {
		panic("backoff: DCF AfterIdle before Start")
	}
	if s.bc == 0 {
		panic("backoff: DCF AfterIdle on a station with expired backoff")
	}
	s.bc--
	return s.intent()
}

// AfterIdleN advances across k consecutive idle slots in O(1); like the
// 1901 machine, DCF idle slots consume no randomness, so the state is
// bit-identical to k successive AfterIdle calls. 1 ≤ k ≤ BC.
//
//plclint:noalloc
func (s *DCFStation) AfterIdleN(k int) Action {
	if s.fresh {
		panic("backoff: DCF AfterIdleN before Start")
	}
	if k < 1 {
		panic(fmt.Sprintf("backoff: DCF AfterIdleN(%d): batch must cover at least one slot", k))
	}
	if k > s.bc {
		panic(fmt.Sprintf("backoff: DCF AfterIdleN(%d) with BC=%d; the station would transmit before the batch ends", k, s.bc))
	}
	s.bc -= k
	return s.intent()
}

// AfterBusy advances across one busy period. In 802.11 there is no
// deferral counter: overhearing stations either freeze (hardware
// convention) or pay one slot (slotted convention); transmitters double
// their window on collision and reset it on success.
func (s *DCFStation) AfterBusy(transmitted, success bool) Action {
	switch {
	case s.fresh:
		s.redraw()
	case transmitted && success:
		s.stage = 0
		s.redraw()
	case transmitted: // collision
		s.stage++
		s.redraw()
	default: // overheard
		if s.DecrementOnBusy && s.bc > 0 {
			s.bc--
		}
	}
	return s.intent()
}

// BC returns the current backoff counter.
func (s *DCFStation) BC() int { return s.bc }

// Stage returns the current backoff stage.
func (s *DCFStation) Stage() int { return s.stage }

// CW returns the contention window of the current stage.
func (s *DCFStation) CW() int { return s.cfg.Window(s.stage) }

// Redraws returns the number of redraws since Reset.
func (s *DCFStation) Redraws() int64 { return s.redraws }
