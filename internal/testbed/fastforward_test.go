package testbed

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/mac"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// buildPairedTestbeds returns two identically seeded testbeds, the
// second forced onto the slot-by-slot medium loop by a no-op observer
// (any observer disables the network's idle fast-forward).
func buildPairedTestbeds(t *testing.T, opts Options) (fast, slow *Testbed) {
	t.Helper()
	fast, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	slow, err = New(opts)
	if err != nil {
		t.Fatal(err)
	}
	slow.Network.Observe(mac.ObserverFunc(func(mac.Event) {}))
	return fast, slow
}

// compareRuns drives both testbeds across the same schedule of Run
// calls (repeated runs exercise the end-of-run batch bound) and demands
// bit-identical statistics and firmware counters.
func compareRuns(t *testing.T, opts Options, durations []float64) {
	t.Helper()
	fast, slow := buildPairedTestbeds(t, opts)
	for _, d := range durations {
		fast.Run(d)
		slow.Run(d)
	}
	fs, ss := fast.Network.Stats(), slow.Network.Stats()
	if !reflect.DeepEqual(fs, ss) {
		t.Fatalf("%+v: batched stats ≠ slot-by-slot stats\nbatched:  %+v\nslotwise: %+v", opts, fs, ss)
	}
	fPer, fC, fA := fast.Fetch()
	sPer, sC, sA := slow.Fetch()
	if fC != sC || fA != sA || !reflect.DeepEqual(fPer, sPer) {
		t.Fatalf("%+v: batched counters (%d/%d %v) ≠ slot-by-slot (%d/%d %v)",
			opts, fC, fA, fPer, sC, sA, sPer)
	}
}

// TestMACFastForwardBitIdentical is the event-driven network's
// equivalence property: batching provably idle slots must not move a
// single counter, clock increment or random draw relative to the
// slot-by-slot loop, across saturated, unsaturated, managed and
// beaconed scenarios.
func TestMACFastForwardBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"saturated-N2", Options{N: 2, Seed: 3}},
		{"saturated-N7", Options{N: 7, Seed: 9}},
		{"burst1-N3", Options{N: 3, BurstMPDUs: 1, Seed: 4}},
		{"poisson-traffic", Options{N: 3, TrafficMeanMicros: 30_000, Seed: 5}},
		{"management-CA2", Options{N: 2, MgmtMeanMicros: 50_000, Seed: 6}},
		{"beacons", Options{N: 3, BeaconPeriodMicros: 33_330, Seed: 7}},
		{"delays-recorded", Options{N: 2, RecordDelays: true, Seed: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			compareRuns(t, tc.opts, []float64{1e6, 5e5, 2e6})
		})
	}
}

// TestMACFastForwardAcrossSeeds widens the seed coverage on the
// saturated scenario the paper's tables use.
func TestMACFastForwardAcrossSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, n := range []int{1, 2, 5} {
			compareRuns(t, Options{N: n, Seed: seed}, []float64{2e6})
		}
	}
}

// loadedTestbed is a loaded multi-class strip: Poisson CA1 data and
// CA2 management flows on every transmitter, a CA3 management flow on
// the first one, 2-MPDU bursts and beacons — every per-class path of
// the medium loop (priority resolution across a station's own classes,
// quiet fast-forward, beacon busy periods) in one network.
func loadedTestbed(t testing.TB) *Testbed {
	t.Helper()
	tb, err := New(Options{N: 5, BurstMPDUs: 2, TrafficMeanMicros: 20_000,
		MgmtMeanMicros: 40_000, BeaconPeriodMicros: 33_330, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb.Network.Station(StationTEI(0)).AddFlow(&mac.Flow{
		Source: traffic.NewPoisson(60_000, rng.New(1).Split(3000)),
		Spec: mac.BurstSpec{Dst: DstTEI, DstAddr: DstAddr, Priority: config.CA3,
			MPDUs: 1, PBsPerMPDU: 1, FrameMicros: 150},
	})
	return tb
}

// TestMediumLoopAllocationFree pins the zero-allocation property of the
// unobserved medium loop: once the scratch buffers and counter buckets
// are warm, advancing the network must not allocate at all — on the
// saturated single-class testbed and on the loaded multi-class one.
func TestMediumLoopAllocationFree(t *testing.T) {
	saturated, err := New(Options{N: 7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tb   *Testbed
	}{{"saturated-N7", saturated}, {"loaded-multiclass", loadedTestbed(t)}} {
		tb := tc.tb
		t.Run(tc.name, func(t *testing.T) {
			tb.Run(1e6) // warm scratch buffers and counter buckets
			if allocs := testing.AllocsPerRun(5, func() { tb.Run(5e5) }); allocs > 0 {
				t.Errorf("steady-state Run allocated %.0f objects per call, want 0", allocs)
			}
			st := tb.Network.Stats()
			if st.Successes == 0 {
				t.Fatal("network delivered nothing")
			}
			if tb.Options.BeaconPeriodMicros > 0 && (st.Beacons == 0 || st.QuietTime == 0 || st.PerClass[config.CA3] == nil) {
				t.Errorf("loaded network missed a path: beacons=%d quiet=%v CA3=%v", st.Beacons, st.QuietTime, st.PerClass[config.CA3])
			}
		})
	}
}
