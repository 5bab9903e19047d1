package sim

import (
	"reflect"
	"testing"

	"repro/internal/backoff"
	"repro/internal/config"
)

// noopObserver makes the engine stop at every idle slot without
// recording anything: with any observer installed, the medium loop
// reports each idle slot instead of jumping the clock across the run.
type noopObserver struct{}

func (noopObserver) OnSlot(float64, SlotKind, []int, []backoff.Snapshot) {}

// runBoth executes the same inputs through the batched (no observer)
// and slot-by-slot (observer installed) engines and returns both
// results.
func runBoth(t *testing.T, in Inputs) (batched, slotwise Result) {
	t.Helper()
	fast, err := NewEngine(in)
	if err != nil {
		t.Fatalf("NewEngine(batched): %v", err)
	}
	slow, err := NewEngine(in)
	if err != nil {
		t.Fatalf("NewEngine(slotwise): %v", err)
	}
	slow.SetObserver(noopObserver{})
	return fast.Run(), slow.Run()
}

// TestFastForwardBitIdentical is the equivalence property of the idle
// fast-forward: for every seed, station count, priority class and
// heterogeneous configuration tried, the batched engine's Result —
// including the floating-point Elapsed trajectory and every per-station
// counter — must equal the slot-by-slot engine's bit for bit. Idle
// slots consume no randomness, so batching them cannot change a draw.
func TestFastForwardBitIdentical(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for _, pri := range []config.Priority{config.CA0, config.CA1, config.CA2, config.CA3} {
			for seed := uint64(1); seed <= 5; seed++ {
				in := DefaultInputs(n)
				in.SimTime = 3e6
				in.Seed = seed
				in.Params = config.Default1901(pri)
				fast, slow := runBoth(t, in)
				if !reflect.DeepEqual(fast, slow) {
					t.Fatalf("N=%d %v seed=%d: batched %+v ≠ slot-by-slot %+v",
						n, pri, seed, fast, slow)
				}
			}
		}
	}
}

// TestFastForwardBitIdenticalHeterogeneous covers PerStation configs:
// mixed aggressive/polite windows and deferral-disabled stations, where
// idle runs are longest and the batch bound must still be exact.
func TestFastForwardBitIdenticalHeterogeneous(t *testing.T) {
	inf := 1 << 20
	aggressive := config.Params{Name: "aggr", CW: []int{4, 8, 16, 32}, DC: []int{0, 1, 3, 15}}
	polite := config.Params{Name: "polite", CW: []int{64, 128, 128, 128}, DC: []int{inf, inf, inf, inf}}
	for n := 2; n <= 10; n++ {
		for seed := uint64(1); seed <= 5; seed++ {
			in := DefaultInputs(n)
			in.SimTime = 3e6
			in.Seed = seed
			in.PerStation = make([]config.Params, n)
			for i := range in.PerStation {
				if i%2 == 0 {
					in.PerStation[i] = aggressive
				} else {
					in.PerStation[i] = polite
				}
			}
			fast, slow := runBoth(t, in)
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("N=%d seed=%d heterogeneous: batched ≠ slot-by-slot\nbatched:  %+v\nslotwise: %+v",
					n, seed, fast, slow)
			}
		}
	}
}

// TestFastForwardStationStateMatches goes beyond the Result: the
// internal backoff state left behind (BC, DC, BPC, stage) must also be
// identical, so that any future extension reading engine state after a
// run cannot observe the fast-forward.
func TestFastForwardStationStateMatches(t *testing.T) {
	in := DefaultInputs(4)
	in.SimTime = 2e6
	in.Seed = 7
	fast, err := NewEngine(in)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewEngine(in)
	if err != nil {
		t.Fatal(err)
	}
	slow.SetObserver(noopObserver{})
	fast.Run()
	slow.Run()
	for i := 0; i < in.N; i++ {
		if fs, ss := fast.Snapshot(i), slow.Snapshot(i); fs != ss {
			t.Errorf("station %d: batched state %+v ≠ slot-by-slot %+v", i, fs, ss)
		}
	}
}

// TestMediumLoopAllocationFree pins the zero-allocation property of the
// engine's medium loop: a 100× longer simulation must allocate exactly
// as much as a short one (engine construction and the Result only) —
// i.e. the loop itself allocates nothing. Besides the homogeneous
// saturated run it covers a heterogeneous mix with a deferral-disabled
// group, channel errors (the error-stream draws) and an EnableControls
// run (the predictor's per-event pass).
func TestMediumLoopAllocationFree(t *testing.T) {
	inf := 1 << 20
	hetero := DefaultInputs(6)
	hetero.PerStation = []config.Params{
		config.DefaultCA1(), config.DefaultCA1(), config.Default1901(config.CA3),
		{Name: "nodefer", CW: []int{4, 8, 16, 32}, DC: []int{inf, inf, inf, inf}},
		{Name: "nodefer", CW: []int{4, 8, 16, 32}, DC: []int{inf, inf, inf, inf}},
		{Name: "wide", CW: []int{512, 1024}, DC: []int{0, 3}},
	}
	errs := DefaultInputs(3)
	errs.ErrorProb = []float64{0, 0.2, 1}
	cases := []struct {
		name     string
		in       Inputs
		controls bool
	}{
		{"saturated", DefaultInputs(3), false},
		{"heterogeneous", hetero, false},
		{"error-prob", errs, false},
		{"controls", errs, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(simTime float64) float64 {
				in := tc.in
				in.SimTime = simTime
				return testing.AllocsPerRun(3, func() {
					e, err := NewEngine(in)
					if err != nil {
						t.Fatal(err)
					}
					if tc.controls {
						e.EnableControls()
					}
					e.Run()
				})
			}
			short, long := allocs(2e5), allocs(2e7)
			if long > short {
				t.Errorf("run 100× longer allocated more (%v vs %v): medium loop is not allocation-free", long, short)
			}
		})
	}
}

// TestDCFFastForwardBitIdentical is the same property for the 802.11
// baseline engine, under both busy-period conventions.
func TestDCFFastForwardBitIdentical(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for _, slotted := range []bool{true, false} {
			for seed := uint64(1); seed <= 3; seed++ {
				in := DefaultDCFInputs(n)
				in.SimTime = 3e6
				in.Seed = seed
				in.SlottedBusy = slotted
				fast, err := RunDCF(in)
				if err != nil {
					t.Fatal(err)
				}
				in.Observer = noopObserver{}
				slow, err := RunDCF(in)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fast, slow) {
					t.Fatalf("DCF N=%d slotted=%v seed=%d: batched %+v ≠ slot-by-slot %+v",
						n, slotted, seed, fast, slow)
				}
			}
		}
	}
}
