package scenario

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"repro/internal/config"
)

// update rewrites testdata/mac-pin.golden instead of comparing:
//
//	go test ./internal/scenario -run TestMacEnginePin -update
var update = flag.Bool("update", false, "rewrite testdata golden files from current output")

// macPinCaMix is a CA0–CA3 mix on the event-driven MAC: Poisson
// stations in every class, so priority resolution elects each class in
// turn and lower classes freeze behind higher ones.
const macPinCaMix = `{
  "name": "ca-mix",
  "engine": "mac",
  "sim_time_us": 2e7,
  "stations": [
    { "count": 2, "priority": "CA0", "traffic": { "kind": "poisson", "mean_interarrival_us": 40000 } },
    { "count": 2, "priority": "CA1", "traffic": { "kind": "poisson", "mean_interarrival_us": 30000 } },
    { "count": 1, "priority": "CA2", "traffic": { "kind": "poisson", "mean_interarrival_us": 80000 }, "frame_us": 300 },
    { "count": 1, "priority": "CA3", "traffic": { "kind": "poisson", "mean_interarrival_us": 120000 }, "frame_us": 150 }
  ]
}`

// TestMacEnginePin pins the event-driven MAC bit for bit: every RunOnce
// metric at full float precision, the per-class outcome split and every
// station's firmware counters, over the mac example scenarios (the
// channel-error one forced onto the mac engine) and a CA0–CA3 mix, three
// seeds each. Any change to the engine's state layout or event loop
// must leave this file byte-identical.
func TestMacEnginePin(t *testing.T) {
	type pinCase struct {
		name string
		spec func(t *testing.T) Spec
	}
	fromFile := func(name string) func(t *testing.T) Spec {
		return func(t *testing.T) Spec {
			s, err := Load(filepath.Join("..", "..", "examples", "scenarios", name))
			if err != nil {
				t.Fatal(err)
			}
			s.Engine = EngineMac
			return s
		}
	}
	cases := []pinCase{
		{"poisson-load", fromFile("poisson-load.json")},
		{"priority-beacons", fromFile("priority-beacons.json")},
		{"channel-errors", fromFile("channel-errors.json")},
		{"ca-mix", func(t *testing.T) Spec {
			s, err := Parse([]byte(macPinCaMix))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}

	var out bytes.Buffer
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, tc := range cases {
		c, err := Compile(tc.spec(t))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(c.Points) != 1 || c.Points[0].MacPlan == nil {
			t.Fatalf("%s: want one mac point, got %+v", tc.name, c.Points)
		}
		p := c.Points[0]
		for _, seed := range []uint64{1, 2, 3} {
			tag := fmt.Sprintf("%s seed=%d", tc.name, seed)
			ms, err := RunOnce(p, seed)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			for _, m := range ms {
				fmt.Fprintf(&out, "%s metric %s %s\n", tag, m.Name, ff(m.Value))
			}

			// RunOnce hides the network; rebuild it to read the
			// per-class split and the firmware counters.
			nw := buildMac(p.MacPlan, seed)
			nw.Run(p.MacPlan.SimTimeMicros)
			st := nw.Stats()
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
			for _, s := range nw.Stations() {
				for _, k := range s.Counters().Keys() {
					lc := s.Counters().Fetch(k)
					fmt.Fprintf(&out, "%s counter %s %s %s %d acked=%d collided=%d\n",
						tag, s.Name, k.Peer, k.Priority, k.Direction, lc.Acked, lc.Collided)
				}
			}
			fmt.Fprintf(&out, "%s elapsed %s quiet %s payload %s\n",
				tag, ff(st.Elapsed), ff(st.QuietTime), ff(st.PayloadMicros))
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
