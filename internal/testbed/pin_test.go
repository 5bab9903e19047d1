package testbed

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"repro/internal/config"
)

// update rewrites testdata/mac-pin.golden instead of comparing:
//
//	go test ./internal/testbed -run TestMacMultiFlowPin -update
var update = flag.Bool("update", false, "rewrite testdata golden files from current output")

// TestMacMultiFlowPin pins the event-driven MAC on stations that carry
// more than one flow — a CA1 data flow plus a CA2 management flow, so a
// station's own classes compete in priority resolution — with beacons
// and access-delay sampling on. The output (stats at full float
// precision, per-class split, every counter bucket and a digest of the
// delay samples) must stay byte-identical across engine refactors.
func TestMacMultiFlowPin(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"saturated-mgmt", Options{N: 3, MgmtMeanMicros: 30_000, RecordDelays: true}},
		{"poisson-mgmt-beacons", Options{N: 4, TrafficMeanMicros: 20_000, MgmtMeanMicros: 50_000,
			BeaconPeriodMicros: 33_330, RecordDelays: true}},
	}
	var out bytes.Buffer
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, tc := range cases {
		for _, seed := range []uint64{1, 2, 3} {
			tag := fmt.Sprintf("%s seed=%d", tc.name, seed)
			opts := tc.opts
			opts.Seed = seed
			tb, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			tb.Run(1e7)
			st := tb.Network.Stats()
			fmt.Fprintf(&out, "%s successes=%d/%d collisions=%d/%d idle=%d errors=%d/%d beacons=%d pbs=%d/%d\n",
				tag, st.Successes, st.SuccessMPDUs, st.Collisions, st.CollidedMPDUs, st.IdleSlots,
				st.FrameErrors, st.FrameErrorMPDUs, st.Beacons, st.DeliveredPBs, st.ErroredPBs)
			fmt.Fprintf(&out, "%s elapsed %s quiet %s payload %s\n",
				tag, ff(st.Elapsed), ff(st.QuietTime), ff(st.PayloadMicros))
			h := fnv.New64a()
			var sum float64
			for _, d := range st.AccessDelays {
				var b [8]byte
				bits := math.Float64bits(d)
				for i := range b {
					b[i] = byte(bits >> (8 * i))
				}
				h.Write(b[:])
				sum += d
			}
			fmt.Fprintf(&out, "%s delays n=%d sum=%s fnv=%016x\n", tag, len(st.AccessDelays), ff(sum), h.Sum64())
			classes := make([]config.Priority, 0, len(st.PerClass))
			for pri := range st.PerClass {
				classes = append(classes, pri)
			}
			sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
			for _, pri := range classes {
				cs := st.PerClass[pri]
				fmt.Fprintf(&out, "%s class %s successes=%d collisions=%d frame_errors=%d\n",
					tag, pri, cs.Successes, cs.Collisions, cs.FrameErrors)
			}
			for _, s := range tb.Network.Stations() {
				for _, k := range s.Counters().Keys() {
					lc := s.Counters().Fetch(k)
					fmt.Fprintf(&out, "%s counter %s %s %s %d acked=%d collided=%d\n",
						tag, s.Name, k.Peer, k.Priority, k.Direction, lc.Acked, lc.Collided)
				}
			}
		}
	}

	path := filepath.Join("testdata", "mac-pin.golden")
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
				t.Fatalf("mac engine output drifted at line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("mac engine output drifted: %d lines, golden has %d", len(gotLines), len(wantLines))
	}
}
