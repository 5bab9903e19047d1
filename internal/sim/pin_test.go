package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/backoff"
	"repro/internal/config"
)

// update rewrites testdata/sim-pin.golden instead of comparing:
//
//	go test ./internal/sim -run TestSimEnginePin -update
var update = flag.Bool("update", false, "rewrite testdata golden files from current output")

// hashObserver folds every observed medium event — start time, kind,
// transmitters and every station's snapshot — into one SHA-256, and
// remembers enough about the last event to tell how the horizon cut the
// run.
type hashObserver struct {
	h        hash.Hash
	buf      []byte
	slots    int64
	lastKind SlotKind
	lastMin  int // min BC entering the last event
}

func newHashObserver() *hashObserver { return &hashObserver{h: sha256.New()} }

func (o *hashObserver) OnSlot(t float64, kind SlotKind, txs []int, snaps []backoff.Snapshot) {
	b := o.buf[:0]
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t))
	b = binary.LittleEndian.AppendUint64(b, uint64(kind))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(txs)))
	for _, i := range txs {
		b = binary.LittleEndian.AppendUint64(b, uint64(i))
	}
	o.lastMin = math.MaxInt
	for _, s := range snaps {
		for _, v := range [...]int{s.CW, s.DC, s.BC, s.BPC, s.Stage} {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		o.lastMin = min(o.lastMin, s.BC)
	}
	o.h.Write(b)
	o.buf = b
	o.slots++
	o.lastKind = kind
}

// simPinCase is one pinned engine configuration.
type simPinCase struct {
	name string
	in   Inputs
}

// simPinCases spans the engine's input space: every priority class at
// N ∈ {1, 2, 5, 20}, a heterogeneous mix carrying a deferral-disabled
// (dc 1048576) group, channel-error probabilities 0, 0.2 and 1, and a
// wide-window configuration whose long idle runs the horizon cuts —
// three seeds each, over several horizons.
func simPinCases() []simPinCase {
	horizons := []float64{1e6, 1.5e6 + 17.3, 2e6 + 3000}
	var cases []simPinCase
	add := func(name string, in Inputs) {
		for seed := uint64(1); seed <= 3; seed++ {
			in := in
			in.Seed = seed
			in.SimTime = horizons[(len(cases))%len(horizons)]
			cases = append(cases, simPinCase{fmt.Sprintf("%s seed=%d T=%s", name, seed, ff(in.SimTime)), in})
		}
	}
	for _, n := range []int{1, 2, 5, 20} {
		for _, pri := range []config.Priority{config.CA0, config.CA1, config.CA2, config.CA3} {
			in := DefaultInputs(n)
			in.Params = config.Default1901(pri)
			add(fmt.Sprintf("N=%d %v", n, pri), in)
		}
	}

	inf := 1 << 20
	wide := config.Params{Name: "wide", CW: []int{512, 1024, 2048, 4096}, DC: []int{0, 1, 3, 15}}
	hetero := []config.Params{
		config.DefaultCA1(), config.DefaultCA1(),
		{Name: "nodefer", CW: []int{4, 8, 16, 32}, DC: []int{inf, inf, inf, inf}},
		{Name: "nodefer", CW: []int{4, 8, 16, 32}, DC: []int{inf, inf, inf, inf}},
		config.Default1901(config.CA3),
		wide,
	}
	in := DefaultInputs(len(hetero))
	in.PerStation = hetero
	add("heterogeneous", in)
	in.ErrorProb = []float64{0, 0.2, 1, 0.2, 0, 0.2}
	add("heterogeneous errors", in)

	for _, eps := range [][]float64{{0, 0, 0}, {0.2, 0.2, 0.2}, {1, 1, 1}, {0, 0.2, 1}} {
		in := DefaultInputs(3)
		in.ErrorProb = eps
		add(fmt.Sprintf("errors %v", eps), in)
	}

	for _, n := range []int{2, 5} {
		in := DefaultInputs(n)
		in.Params = wide
		add(fmt.Sprintf("N=%d wide", n), in)
	}
	return cases
}

func ff(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// TestSimEnginePin pins the slot-synchronous engine bit for bit: every
// Result field at full float precision, every per-station counter, the
// control variates of an EnableControls run and a digest of the
// slot-by-slot observer stream. Any change to the engine's state layout
// or medium loop must leave testdata/sim-pin.golden byte-identical.
func TestSimEnginePin(t *testing.T) {
	var out bytes.Buffer
	var cutIdle, cutBusy int
	for _, tc := range simPinCases() {
		run := func(obs Observer, controls bool) Result {
			e, err := NewEngine(tc.in)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if obs != nil {
				e.SetObserver(obs)
			}
			if controls {
				e.EnableControls()
			}
			return e.Run()
		}
		res := run(nil, false)
		fmt.Fprintf(&out, "%s result collision_pr=%s norm_throughput=%s successes=%d collided_frames=%d collision_events=%d frame_errors=%d idle_slots=%d elapsed=%s\n",
			tc.name, ff(res.CollisionProbability), ff(res.NormalizedThroughput),
			res.Successes, res.CollidedFrames, res.CollisionEvents, res.FrameErrors,
			res.IdleSlots, ff(res.Elapsed))
		for i, s := range res.PerStation {
			fmt.Fprintf(&out, "%s station %d successes=%d collided=%d errored=%d attempts=%d deferrals=%d redraws=%d\n",
				tc.name, i, s.Successes, s.Collided, s.Errored, s.Attempts, s.Deferrals, s.Redraws)
		}

		cres := run(nil, true)
		ctrl := make([]string, len(cres.Controls))
		for i, c := range cres.Controls {
			ctrl[i] = ff(c)
		}
		fmt.Fprintf(&out, "%s controls %s\n", tc.name, strings.Join(ctrl, " "))
		cres.Controls = nil
		if !reflect.DeepEqual(cres, res) {
			t.Errorf("%s: enabling controls changed the result", tc.name)
		}

		obs := newHashObserver()
		ores := run(obs, false)
		if !reflect.DeepEqual(ores, res) {
			t.Errorf("%s: observed run ≠ batched run", tc.name)
		}
		fmt.Fprintf(&out, "%s observer slots=%d last=%v sha256=%x\n", tc.name, obs.slots, obs.lastKind, obs.h.Sum(nil))
		switch {
		case obs.lastKind == Idle && obs.lastMin >= 2:
			cutIdle++ // the idle run had slots left past the horizon
		case obs.lastKind != Idle && res.Elapsed > tc.in.SimTime:
			cutBusy++
		}
	}
	if cutIdle == 0 || cutBusy == 0 {
		t.Errorf("pin cases must end both mid-idle-run (%d) and mid-busy-period (%d)", cutIdle, cutBusy)
	}

	path := filepath.Join("testdata", "sim-pin.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		gotLines := bytes.Split(out.Bytes(), []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("sim engine output drifted at line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("sim engine output drifted: %d lines, golden has %d", len(gotLines), len(wantLines))
	}
}
