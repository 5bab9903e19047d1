// Package testbed orchestrates the emulated HomePlug AV experiments
// exactly the way Section 3 of the paper runs the real ones: N
// saturated stations plugged into one power strip, all transmitting
// UDP traffic at CA1 to a destination station D; counters reset at
// test start and fetched at test end; collision probability evaluated
// as ΣCᵢ/ΣAᵢ; optional sniffer capture at D for burst, overhead and
// fairness analysis.
package testbed

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/hpav"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// Options configures a testbed instance.
type Options struct {
	// N is the number of saturated transmitting stations.
	N int
	// BurstMPDUs is the burst size; the paper measured that its
	// stations use bursts of 2 MPDUs (Section 3.1). Default 2.
	BurstMPDUs int
	// PBsPerMPDU is the number of physical blocks per MPDU. Default 4.
	PBsPerMPDU int
	// FrameMicros is the per-MPDU payload duration. Default 1100 µs,
	// calibrated so a 240 s test at N = 1 yields ΣA ≈ 1.6·10⁵ MPDUs,
	// matching the absolute counter magnitudes of the paper's Table 2
	// (the INT6300 testbed transmits bursts of 2 MPDUs whose implied
	// per-MPDU airtime is ≈1.1 ms). The minimal simulator keeps the
	// paper's 2050 µs frame from the sim_1901 invocation; the collision
	// probability is invariant to the frame duration, so Figure 2's
	// agreement is unaffected.
	FrameMicros float64
	// Priority of the data traffic. Default CA1 ("the UDP traffic is
	// transmitted with CA1 priority").
	Priority config.Priority
	// Params optionally overrides the CSMA/CA parameters of the data
	// priority at every transmitter (the boosting hook). Nil keeps the
	// Table 1 defaults.
	Params *config.Params
	// MgmtMeanMicros, when positive, gives every transmitter a Poisson
	// management-message flow at CA2 with this mean inter-arrival time,
	// reproducing the background MMEs whose overhead Section 3.3
	// measures. Zero disables management traffic (the paper's isolated
	// validation runs).
	MgmtMeanMicros float64
	// TrafficMeanMicros, when positive, replaces saturated sources with
	// Poisson sources of this mean inter-arrival time. Zero = saturated.
	TrafficMeanMicros float64
	// ErrorModel corrupts physical blocks; nil = error-free channel.
	ErrorModel phy.ErrorModel
	// BeaconPeriodMicros, when positive, makes the strip carry a
	// central-coordinator beacon every period (HomePlug AV: two AC line
	// cycles — 33,330 µs at 60 Hz). Zero disables beacons, matching the
	// MAC-only validation runs.
	BeaconPeriodMicros float64
	// RecordDelays enables per-burst access-delay sampling
	// (Network.Stats().AccessDelays).
	RecordDelays bool
	// Seed drives every random stream of the testbed.
	Seed uint64
}

// withDefaults fills the zero values.
func (o Options) withDefaults() Options {
	if o.BurstMPDUs == 0 {
		o.BurstMPDUs = 2
	}
	if o.PBsPerMPDU == 0 {
		o.PBsPerMPDU = 4
	}
	if o.FrameMicros == 0 {
		o.FrameMicros = CalibratedFrameMicros
	}
	if o.Priority == 0 {
		// The zero value means "unset" and defaults to CA1, the class
		// of all the paper's data traffic. Scenarios that genuinely
		// need CA0 data flows build their stations through internal/mac
		// directly; the testbed's methodology never uses CA0.
		o.Priority = config.CA1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.N < 1 || o.N > hpav.MaxTransmitters {
		return fmt.Errorf("testbed: N=%d must be 1–%d (TEIs 2–254; D holds TEI 1)", o.N, hpav.MaxTransmitters)
	}
	if o.BurstMPDUs < 1 || o.BurstMPDUs > hpav.MaxBurstMPDUs {
		return fmt.Errorf("testbed: burst of %d MPDUs out of range", o.BurstMPDUs)
	}
	if o.PBsPerMPDU < 1 {
		return fmt.Errorf("testbed: %d PBs per MPDU", o.PBsPerMPDU)
	}
	if o.FrameMicros <= 0 {
		return fmt.Errorf("testbed: frame duration %v", o.FrameMicros)
	}
	if o.Params != nil {
		if err := o.Params.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CalibratedFrameMicros is the default per-MPDU payload duration; see
// Options.FrameMicros for the Table 2 calibration argument.
const CalibratedFrameMicros = 1100.0

// DstTEI and DstAddr identify the destination station D.
const DstTEI = hpav.TEI(1)

// DstAddr is D's MAC address.
var DstAddr = hpav.MAC{0x00, 0xB0, 0x52, 0x00, 0x00, 0x01}

// StationAddr returns the MAC of transmitter i (0-based).
func StationAddr(i int) hpav.MAC {
	return hpav.MAC{0x00, 0xB0, 0x52, 0x00, 0x01, byte(i + 1)}
}

// StationTEI returns the TEI of transmitter i (0-based).
func StationTEI(i int) hpav.TEI { return hpav.TEI(i + 2) }

// Testbed is an assembled emulated power strip.
type Testbed struct {
	Options Options
	Network *mac.Network
	// Transmitters are the N saturated stations' devices.
	Transmitters []*device.Device
	// Destination is station D's device (where the sniffer runs).
	Destination *device.Device
}

// New assembles a testbed.
func New(opts Options) (*Testbed, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}

	root := rng.New(opts.Seed)
	nw := mac.NewNetworkCfg(mac.Config{
		ErrorModel:         opts.ErrorModel,
		BeaconPeriodMicros: opts.BeaconPeriodMicros,
		RecordDelays:       opts.RecordDelays,
	})

	dstStation := mac.NewStation("D", DstTEI, DstAddr, root.Split(0))
	nw.Attach(dstStation)
	dst := device.New(dstStation)

	tb := &Testbed{Options: opts, Network: nw, Destination: dst}
	for i := 0; i < opts.N; i++ {
		st := mac.NewStation(fmt.Sprintf("sta%d", i+1), StationTEI(i), StationAddr(i), root.Split(uint64(i+1)))
		if opts.Params != nil {
			st.SetParams(opts.Priority, *opts.Params)
		}

		var src traffic.Source = traffic.Saturated{}
		if opts.TrafficMeanMicros > 0 {
			src = traffic.NewPoisson(opts.TrafficMeanMicros, root.Split(uint64(1000+i)))
		}
		st.AddFlow(&mac.Flow{
			Source: src,
			Spec: mac.BurstSpec{
				Dst: DstTEI, DstAddr: DstAddr, Priority: opts.Priority,
				MPDUs: opts.BurstMPDUs, PBsPerMPDU: opts.PBsPerMPDU,
				FrameMicros: opts.FrameMicros,
			},
		})
		if opts.MgmtMeanMicros > 0 {
			st.AddFlow(&mac.Flow{
				Source: traffic.NewPoisson(opts.MgmtMeanMicros, root.Split(uint64(2000+i))),
				Spec: mac.BurstSpec{
					Dst: DstTEI, DstAddr: DstAddr, Priority: config.CA2,
					MPDUs: 1, PBsPerMPDU: 1, FrameMicros: 150,
				},
			})
		}
		nw.Attach(st)
		tb.Transmitters = append(tb.Transmitters, device.New(st))
	}
	return tb, nil
}

// dataKey is the counter bucket of the data traffic toward D.
func (tb *Testbed) dataKey() mac.LinkKey {
	return mac.LinkKey{Peer: DstAddr, Priority: tb.Options.Priority, Direction: hpav.DirectionTx}
}

// ResetAll clears the data-link counters at every transmitter — the
// start-of-test step ("we reset the statistics of the frames
// transmitted at all the stations at the beginning of each test").
func (tb *Testbed) ResetAll() {
	key := tb.dataKey()
	for _, d := range tb.Transmitters {
		d.Station().Counters().Reset(key)
	}
}

// Run advances the emulated strip by the given virtual duration (µs).
func (tb *Testbed) Run(durationMicros float64) { tb.Network.Run(durationMicros) }

// Fetch returns each transmitter's (Cᵢ, Aᵢ) toward D plus the sums —
// the end-of-test step of Section 3.2.
func (tb *Testbed) Fetch() (per []mac.LinkCounters, sumC, sumA uint64) {
	key := tb.dataKey()
	per = make([]mac.LinkCounters, len(tb.Transmitters))
	for i, d := range tb.Transmitters {
		c := d.Station().Counters().Fetch(key)
		per[i] = c
		sumC += c.Collided
		sumA += c.Acked
	}
	return per, sumC, sumA
}

// CollisionProbability runs one reset–run–fetch cycle and returns
// ΣCᵢ/ΣAᵢ, the paper's measurement estimator.
func (tb *Testbed) CollisionProbability(durationMicros float64) float64 {
	tb.ResetAll()
	tb.Run(durationMicros)
	_, c, a := tb.Fetch()
	if a == 0 {
		return 0
	}
	return float64(c) / float64(a)
}

// EnableSniffer turns on capture at the destination D, as the paper
// does ("we can capture the SoF delimiters at the destination station
// D").
func (tb *Testbed) EnableSniffer() {
	req := &hpav.Frame{
		ODA: DstAddr, OSA: hpav.MAC{0x02, 0, 0, 0, 0, 0x01},
		Type: hpav.MMTypeSnifferReq, OUI: hpav.IntellonOUI,
		Payload: (&hpav.SnifferReq{Control: hpav.SnifferEnable}).Marshal(),
	}
	if _, err := tb.Destination.HandleMME(req); err != nil {
		panic(fmt.Sprintf("testbed: enable sniffer: %v", err))
	}
}

// Captures drains the destination's capture buffer.
func (tb *Testbed) Captures() []hpav.SnifferInd { return tb.Destination.Captures() }
