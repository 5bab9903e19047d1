package mac

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/backoff"
	"repro/internal/config"
	"repro/internal/hpav"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/timing"
	"repro/internal/traffic"
)

// refNetwork is the reference medium loop the arrival-driven engine
// must reproduce. It asks every flow whether it is pending on every
// medium event, rescans every empty flow for the quiet fast-forward and
// the idle batch bound, resolves a burst's destination by TEI and adds
// to the counters by key under each block's mutex. It shares the
// Network's state and its unchanged helpers (beacon, capture, emit) but
// none of the wake-time or counter-bucket caches.
type refNetwork struct{ *Network }

// run is Network.Run on the reference loop.
func (r refNetwork) run(duration float64) {
	n := r.Network
	end := n.clock + duration
	for n.clock < end {
		r.step(end)
	}
	n.stats.Elapsed = n.clock
}

// refPendingMask asks each flow of s whether it has traffic at now.
func refPendingMask(s *Station, now float64) uint8 {
	var m uint8
	for _, f := range s.flows {
		if f.Source.Pending(now) {
			m |= 1 << f.Spec.Priority
		}
	}
	return m
}

func (r refNetwork) step(end float64) {
	n := r.Network
	now := n.clock
	if n.beaconPeriod > 0 && n.nextBeacon <= now {
		n.beacon(now)
		return
	}

	classes := n.classScratch[:0]
	for _, s := range n.stations {
		s.pending = refPendingMask(s, now)
		if s.pending != 0 {
			classes = append(classes, config.Priority(bits.Len8(s.pending)-1))
		}
	}
	n.classScratch = classes[:0]
	activeClass, anyPending := ResolvePriority(classes)

	if !anyPending {
		next := end
		for _, s := range n.stations {
			for _, f := range s.flows {
				if t := f.Source.NextArrival(now); t < next {
					next = t
				}
			}
		}
		if next <= now {
			next = now + timing.SlotTime
		}
		d := next - now
		n.stats.QuietTime += d
		n.clock = next
		n.emit(Event{Time: now, Duration: d, Kind: EventQuiet})
		return
	}

	contenders := n.contenderScratch[:0]
	txs := n.txScratch[:0]
	for _, s := range n.stations {
		if s.pending&(1<<activeClass) == 0 {
			continue
		}
		contenders = append(contenders, s)
		if s.contend(activeClass, now) == backoff.Transmit {
			txs = append(txs, s)
		}
	}
	n.contenderScratch = contenders[:0]
	n.txScratch = txs[:0]

	switch len(txs) {
	case 0:
		if len(n.observers) == 0 {
			k, t := r.idleRun(contenders, activeClass, now, end)
			n.stats.IdleSlots += int64(k)
			for _, s := range contenders {
				s.afterIdleN(activeClass, k)
			}
			n.clock = t
			return
		}
		n.stats.IdleSlots++
		for _, s := range contenders {
			s.afterIdle(activeClass)
		}
		n.clock = now + timing.SlotTime
		n.emit(Event{Time: now, Duration: timing.SlotTime, Kind: EventIdle, Class: activeClass})
	case 1:
		if w := txs[0]; w.frameErrProb > 0 && w.errSrc.Bernoulli(w.frameErrProb) {
			r.frameError(w, activeClass, now)
		} else {
			r.success(w, activeClass, now)
		}
	default:
		r.collision(txs, activeClass, now)
	}
}

func (r refNetwork) idleRun(contenders []*Station, pri config.Priority, now, end float64) (int, float64) {
	n := r.Network
	m := contenders[0].backoffAt(pri)
	for _, s := range contenders[1:] {
		if bc := s.backoffAt(pri); bc < m {
			m = bc
		}
	}
	k := 1
	t := now + timing.SlotTime
	if m == 1 {
		return k, t
	}
	nextArrival := inf
	for _, s := range n.stations {
		for _, f := range s.flows {
			if f.Source.Pending(now) {
				continue
			}
			if a := f.Source.NextArrival(now); a < nextArrival {
				nextArrival = a
			}
		}
	}
	for k < m && t < end && t < nextArrival && !(n.beaconPeriod > 0 && n.nextBeacon <= t) {
		t += timing.SlotTime
		k++
	}
	return k, t
}

// ack credits k acknowledged MPDUs by key: the tx link at w and, when
// the destination is attached, the mirroring rx link there.
func (r refNetwork) ack(w *Station, spec BurstSpec, k uint64) {
	w.counters.AddAcked(LinkKey{Peer: spec.DstAddr, Priority: spec.Priority, Direction: hpav.DirectionTx}, k)
	if dst := r.byTEI[spec.Dst]; dst != nil {
		dst.counters.AddAcked(LinkKey{Peer: w.Addr, Priority: spec.Priority, Direction: hpav.DirectionRx}, k)
	}
}

func (r refNetwork) frameError(w *Station, pri config.Priority, now float64) {
	n := r.Network
	observed := len(n.observers) > 0
	needBurst := observed || n.snifferActive()
	spec := w.peek(pri, now).Spec
	var burst *hpav.Burst
	if needBurst {
		burst = w.burst(spec)
	}
	k := spec.MPDUs
	d := n.burstDuration(k, spec.FrameMicros)
	r.ack(w, spec, uint64(k))
	if needBurst {
		n.capture(burst, now)
	}
	for _, s := range n.stations {
		if s.active[pri] {
			s.afterBusy(pri, s == w, false)
		}
	}
	n.stats.FrameErrors++
	n.stats.FrameErrorMPDUs += int64(k)
	n.stats.ErroredPBs += int64(k * spec.PBsPerMPDU)
	n.classStats(pri).FrameErrors++
	n.clock = now + d
	if observed {
		n.emit(Event{
			Time: now, Duration: d, Kind: EventError, Class: pri,
			Transmitters: []hpav.TEI{w.TEI}, Burst: burst,
			ErroredPBs: k * spec.PBsPerMPDU,
		})
	}
}

func (r refNetwork) success(w *Station, pri config.Priority, now float64) {
	n := r.Network
	observed := len(n.observers) > 0
	needBurst := observed || n.snifferActive()
	spec := w.take(pri, now).Spec
	var burst *hpav.Burst
	if needBurst {
		burst = w.burst(spec)
	}
	k := spec.MPDUs
	d := n.burstDuration(k, spec.FrameMicros)
	errored := 0
	for i := 0; i < k*spec.PBsPerMPDU; i++ {
		if n.errModel.Corrupt() {
			errored++
		}
	}
	delivered := k*spec.PBsPerMPDU - errored
	r.ack(w, spec, uint64(k))
	if needBurst {
		n.capture(burst, now)
	}
	for _, s := range n.stations {
		if s.active[pri] {
			s.afterBusy(pri, s == w, true)
		}
	}
	if n.recordDelays {
		n.stats.AccessDelays = append(n.stats.AccessDelays, now+d-w.headSince[pri])
	}
	if w.pendingAt(pri, now) {
		w.headSince[pri] = now + d
	} else {
		w.quiesce(pri)
	}
	n.stats.Successes++
	n.stats.SuccessMPDUs += int64(k)
	n.stats.PayloadMicros += float64(k) * spec.FrameMicros
	n.stats.ErroredPBs += int64(errored)
	n.stats.DeliveredPBs += int64(delivered)
	n.classStats(pri).Successes++
	n.clock = now + d
	if observed {
		n.emit(Event{
			Time: now, Duration: d, Kind: EventSuccess, Class: pri,
			Transmitters: []hpav.TEI{w.TEI}, Burst: burst, ErroredPBs: errored,
		})
	}
}

func (r refNetwork) collision(txs []*Station, pri config.Priority, now float64) {
	n := r.Network
	observed := len(n.observers) > 0
	var teis []hpav.TEI
	var maxFrame float64
	var collidedMPDUs int64
	for _, s := range txs {
		spec := s.peek(pri, now).Spec
		if observed {
			teis = append(teis, s.TEI)
		}
		maxFrame = max(maxFrame, spec.FrameMicros)
		k := uint64(spec.MPDUs)
		collidedMPDUs += int64(k)
		key := LinkKey{Peer: spec.DstAddr, Priority: pri, Direction: hpav.DirectionTx}
		s.counters.AddAcked(key, k)
		s.counters.AddCollided(key, k)
	}
	d := n.overheads.CollisionDuration(maxFrame)
	for _, s := range n.stations {
		if !s.active[pri] {
			continue
		}
		transmitted := false
		for _, x := range txs {
			transmitted = transmitted || x == s
		}
		s.afterBusy(pri, transmitted, false)
	}
	n.stats.Collisions++
	n.stats.CollidedMPDUs += collidedMPDUs
	n.classStats(pri).Collisions++
	n.clock = now + d
	if observed {
		n.emit(Event{Time: now, Duration: d, Kind: EventCollision, Class: pri, Transmitters: teis})
	}
}

// oracleFlow and oracleCase describe one random network, so that the
// engine and the reference can each build an identical copy.
type oracleFlow struct {
	kind int // 0 saturated, 1 Poisson, 2 none
	mean float64
	dst  int // index into the case's stations, or -1 for an unattached TEI
	spec BurstSpec
}

type oracleCase struct {
	seed      uint64
	stations  [][]oracleFlow
	smallCW   []bool
	frameErr  []float64
	sniffer   int // station index with a sniffer, or -1
	pbErr     float64
	beacon    float64
	delays    bool
	observed  bool
	midReset  int // with an observer: reset a counter block every midReset events
	chunks    []float64
	resetKind []int // per chunk boundary: 0 none, 1 Reset one key, 2 ResetAll
	resetAt   []int // station whose block is reset
}

func oracleAddr(i int) hpav.MAC { return hpav.MAC{0x02, 0, 0, 0, 0x0A, byte(i + 1)} }

func randomOracleCase(src *rng.Source, seed uint64) oracleCase {
	c := oracleCase{seed: seed, sniffer: -1}
	ns := 1 + src.Intn(12)
	// Half the cases carry no saturated flow, so that quiet periods,
	// arrivals into empty queues and drained queues dominate.
	unsaturated := src.Intn(2) == 0
	for i := 0; i < ns; i++ {
		nf := 1 + src.Intn(3)
		var flows []oracleFlow
		for j := 0; j < nf; j++ {
			f := oracleFlow{kind: src.Intn(3), mean: 200 + src.Float64()*40_000}
			pri := config.Priority(src.Intn(4))
			if unsaturated && f.kind == 0 {
				f.kind = 1
			}
			f.dst = src.Intn(ns+1) - 1
			f.spec = BurstSpec{
				Priority: pri, MPDUs: 1 + src.Intn(hpav.MaxBurstMPDUs),
				PBsPerMPDU: 1 + src.Intn(4), FrameMicros: 100 + src.Float64()*2000,
			}
			flows = append(flows, f)
		}
		c.stations = append(c.stations, flows)
		c.smallCW = append(c.smallCW, src.Intn(3) == 0)
		p := 0.0
		if src.Intn(4) == 0 {
			p = src.Float64() * 0.5
		}
		c.frameErr = append(c.frameErr, p)
	}
	if src.Intn(4) == 0 {
		c.sniffer = src.Intn(ns)
	}
	if src.Intn(3) == 0 {
		c.pbErr = src.Float64() * 0.2
	}
	if src.Intn(2) == 0 {
		c.beacon = 5_000 + src.Float64()*40_000
	}
	c.delays = src.Intn(2) == 0
	c.observed = src.Intn(2) == 0
	c.midReset = 5 + src.Intn(60)
	for k := 1 + src.Intn(4); k > 0; k-- {
		c.chunks = append(c.chunks, 1_000+src.Float64()*300_000)
		c.resetKind = append(c.resetKind, src.Intn(3))
		c.resetAt = append(c.resetAt, src.Intn(ns))
	}
	return c
}

// build assembles the case's network; digest, when non-nil, receives
// every observed event and sniffer capture.
func (c oracleCase) build(digest hash.Hash) *Network {
	root := rng.New(c.seed)
	cfg := Config{BeaconPeriodMicros: c.beacon, RecordDelays: c.delays}
	if c.pbErr > 0 {
		cfg.ErrorModel = phy.NewBernoulli(c.pbErr, root.Split(9_000))
	}
	nw := NewNetworkCfg(cfg)
	for i, flows := range c.stations {
		st := NewStation(fmt.Sprintf("s%d", i), hpav.TEI(i+1), oracleAddr(i), root.Split(uint64(i)))
		if c.smallCW[i] {
			for pri := config.CA0; pri <= config.CA3; pri++ {
				st.SetParams(pri, config.Params{Name: "small", CW: []int{2, 4, 8, 16}, DC: []int{0, 1, 3, 15}})
			}
		}
		for j, f := range flows {
			var src traffic.Source
			switch f.kind {
			case 1:
				src = traffic.NewPoisson(f.mean, root.Split(uint64(1_000+10*i+j)))
			case 2:
				src = traffic.None{}
			default:
				src = traffic.Saturated{}
			}
			spec := f.spec
			if f.dst >= 0 {
				spec.Dst, spec.DstAddr = hpav.TEI(f.dst+1), oracleAddr(f.dst)
			} else {
				spec.Dst, spec.DstAddr = 200, oracleAddr(199) // never attached
			}
			st.AddFlow(&Flow{Source: src, Spec: spec})
		}
		if p := c.frameErr[i]; p > 0 {
			st.SetFrameError(p, root.Split(5_000+uint64(i)))
		}
		if i == c.sniffer && digest != nil {
			st.SnifferEnabled = true
			st.Sniffer = func(ind hpav.SnifferInd) { fmt.Fprintf(digest, "cap %d %+v\n", ind.TimestampMicros, ind.SoF) }
		}
		nw.Attach(st)
	}
	if c.observed && digest != nil {
		events := 0
		nw.Observe(ObserverFunc(func(ev Event) {
			// Counter resets between two medium events of one Run, the
			// way management tooling resets a live strip.
			if events++; events%c.midReset == 0 {
				resetBlock(nw.Stations()[events%len(c.stations)].Counters(), events/c.midReset%2 == 0)
			}
			fmt.Fprintf(digest, "ev %v %v %v %v %v %d", ev.Time, ev.Duration, ev.Kind, ev.Class, ev.Transmitters, ev.ErroredPBs)
			if ev.Burst != nil {
				fmt.Fprintf(digest, " %+v", *ev.Burst)
			}
			fmt.Fprintln(digest)
		}))
	}
	return nw
}

// counterDump renders every station's populated buckets in key order.
func counterDump(nw *Network) string {
	out := ""
	for _, s := range nw.Stations() {
		for _, k := range s.Counters().Keys() {
			out += fmt.Sprintf("%s %v %+v\n", s.Name, k, s.Counters().Fetch(k))
		}
	}
	return out
}

// resetBlock clears one populated bucket of cs, or all of them.
func resetBlock(cs *Counters, all bool) {
	if all {
		cs.ResetAll()
	} else if keys := cs.Keys(); len(keys) > 0 {
		cs.Reset(keys[len(keys)/2])
	}
}

// resetBetween applies the case's counter reset at chunk boundary i.
func (c oracleCase) resetBetween(nw *Network, i int) {
	if c.resetKind[i] != 0 {
		resetBlock(nw.Stations()[c.resetAt[i]].Counters(), c.resetKind[i] == 2)
	}
}

// TestNetworkMatchesOracle runs random networks — 1–12 stations with
// 1–3 flows each over CA0–CA3, saturated, Poisson and silent sources,
// 1–4 MPDU bursts, frame and PB errors, beacons, delay recording, a
// sniffer and an observer each on or off, and runs split into chunks
// with counter resets in between (and, when observed, between events)
// — on the engine and on the reference loop, and requires identical
// statistics, counter buckets and event and capture digests after
// every chunk.
func TestNetworkMatchesOracle(t *testing.T) {
	cases := 320
	if testing.Short() {
		cases = 60
	}
	gen := rng.New(20260415)
	for ci := 0; ci < cases; ci++ {
		c := randomOracleCase(gen.Split(uint64(ci)), uint64(ci+1))
		gotDigest, wantDigest := sha256.New(), sha256.New()
		got, want := c.build(gotDigest), c.build(wantDigest)
		ref := refNetwork{want}
		for i, d := range c.chunks {
			got.Run(d)
			ref.run(d)
			name := fmt.Sprintf("case %d (%d stations, observed %v, beacons %v) chunk %d", ci, len(c.stations), c.observed, c.beacon > 0, i)
			if g, w := got.Stats(), want.Stats(); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: stats differ\n got %+v\nwant %+v", name, g, w)
			}
			if g, w := counterDump(got), counterDump(want); g != w {
				t.Fatalf("%s: counters differ\n got:\n%s\nwant:\n%s", name, g, w)
			}
			if g, w := gotDigest.Sum(nil), wantDigest.Sum(nil); string(g) != string(w) {
				t.Fatalf("%s: event digests differ", name)
			}
			c.resetBetween(got, i)
			c.resetBetween(want, i)
		}
	}
}
