package model

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/config"
)

// update rewrites testdata/model-pin.golden instead of comparing:
//
//	go test ./internal/model -run TestModelPin -update
var update = flag.Bool("update", false, "rewrite testdata golden files from current output")

func ff(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// dump renders every field of a struct as name=value, floats at full
// precision, so a pinned line covers fields added later too.
func dump(v any) string {
	rv := reflect.ValueOf(v)
	var parts []string
	for i := 0; i < rv.NumField(); i++ {
		parts = append(parts, rv.Type().Field(i).Name+"="+dumpValue(rv.Field(i)))
	}
	return strings.Join(parts, " ")
}

func dumpValue(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Float64:
		return ff(v.Float())
	case reflect.Slice:
		parts := make([]string, v.Len())
		for i := range parts {
			parts[i] = dumpValue(v.Index(i))
		}
		return "[" + strings.Join(parts, " ") + "]"
	case reflect.Struct:
		return "{" + dump(v.Interface()) + "}"
	default:
		return fmt.Sprint(v.Interface())
	}
}

// solveSaturated solves one class of saturated groups.
func solveSaturated(t *testing.T, tm Timing, groups ...Group) *ClassSolution {
	t.Helper()
	loaded := make([]LoadedGroup, len(groups))
	for i, g := range groups {
		loaded[i] = LoadedGroup{Group: g, Priority: config.CA1, Saturated: true}
	}
	sol, err := SolveLoaded(loaded, tm)
	if err != nil {
		t.Fatalf("%+v: %v", groups, err)
	}
	return &sol.Classes[0]
}

type pinConfig struct {
	n      int
	params config.Params
}

// pinConfigs are 20 fixed points of TestFixedPointSanityProperty's
// space (N 1–20, CW₀ 2–64, d₀ 0–15).
func pinConfigs() []pinConfig {
	var out []pinConfig
	for k := 0; k < 20; k++ {
		n, w0, d0 := (7*k)%20+1, (13*k+5)%63+2, (5*k)%16
		out = append(out, pinConfig{n, config.Params{
			CW: []int{w0, w0 * 2, w0 * 4, w0 * 8},
			DC: []int{d0, d0 + 1, d0 + 3, d0 + 15},
		}})
	}
	return out
}

// TestModelPin pins every solver output — one saturated group with
// MetricsFor, split and noisy saturated classes, every ClassSolution
// field of the loaded priority model and the 802.11 DCF baseline — at
// full float precision. Solver refactors must leave the golden
// byte-identical.
func TestModelPin(t *testing.T) {
	var out bytes.Buffer
	tm := DefaultTiming()

	homogeneous := func(tag string, n int, params config.Params) {
		cs := solveSaturated(t, tm, Group{N: n, Params: params})
		pred := Prediction{Tau: cs.Tau[0], Gamma: cs.Gamma[0]}
		fmt.Fprintf(&out, "solve %s n=%d tau=%s gamma=%s iter=%d %s\n",
			tag, n, ff(pred.Tau), ff(pred.Gamma), cs.Iterations, dump(MetricsFor(pred, n, tm)))
	}
	for _, pri := range []config.Priority{config.CA0, config.CA1, config.CA2, config.CA3} {
		for n := 1; n <= 40; n++ {
			homogeneous(pri.String(), n, config.Default1901(pri))
		}
	}
	for k, c := range pinConfigs() {
		homogeneous(fmt.Sprintf("prop%02d cw=%v dc=%v", k, c.params.CW, c.params.DC), c.n, c.params)
	}

	ca1, ca3 := config.Default1901(config.CA1), config.Default1901(config.CA3)
	inf := 1 << 20
	polite := config.Params{Name: "polite", CW: []int{4, 16, 64, 256}, DC: []int{0, 0, 0, 0}}
	aggressive := config.Params{Name: "aggressive", CW: []int{4, 8, 16, 32}, DC: []int{inf, inf, inf, inf}}
	heteroCases := []struct {
		tag    string
		groups []Group
	}{
		{"split-1", []Group{{N: 1, Params: ca1}}},
		{"split-5", []Group{{N: 5, Params: ca1}}},
		{"split-2-3", []Group{{N: 2, Params: ca1}, {N: 3, Params: ca1}}},
		{"split-1-1-3", []Group{{N: 1, Params: ca1}, {N: 1, Params: ca1}, {N: 3, Params: ca1}}},
		{"split-1-2-3-4", []Group{{N: 1, Params: ca1}, {N: 2, Params: ca1}, {N: 3, Params: ca1}, {N: 4, Params: ca1}}},
		{"err-0", []Group{{N: 5, Params: ca1}}},
		{"err-0.2", []Group{{N: 5, Params: ca1, ErrorProb: 0.2}}},
		{"err-1", []Group{{N: 3, Params: ca1, ErrorProb: 1}}},
		{"lone-err-0.2", []Group{{N: 1, Params: ca1, ErrorProb: 0.2}}},
		{"mixed-err", []Group{{N: 5, Params: ca1, ErrorProb: 0.1}, {N: 3, Params: ca3}}},
		{"ca1-ca3", []Group{{N: 2, Params: ca1}, {N: 2, Params: ca3}}},
		{"e8-aggressive-3", []Group{{N: 3, Params: ca1}, {N: 3, Params: aggressive}}},
		{"e8-aggressive-4", []Group{{N: 4, Params: ca1}, {N: 4, Params: aggressive}}},
		{"e8-aggressive-5", []Group{{N: 5, Params: ca1}, {N: 5, Params: aggressive}}},
		{"e8-polite-3", []Group{{N: 3, Params: ca1}, {N: 3, Params: polite}}},
		{"e8-polite-4", []Group{{N: 4, Params: ca1}, {N: 4, Params: polite}}},
	}
	for _, c := range heteroCases {
		cs := solveSaturated(t, tm, c.groups...)
		fmt.Fprintf(&out, "hetero %s tau=%s gamma=%s iter=%d %s\n", c.tag,
			dumpValue(reflect.ValueOf(cs.Tau)), dumpValue(reflect.ValueOf(cs.Gamma)),
			cs.Iterations, dump(cs.Met))
	}

	sat := func(n int, p config.Params, pri config.Priority, e float64) LoadedGroup {
		return LoadedGroup{Group: Group{N: n, Params: p, ErrorProb: e}, Priority: pri, Saturated: true}
	}
	poisson := func(n int, p config.Params, pri config.Priority, e, lam float64) LoadedGroup {
		return LoadedGroup{Group: Group{N: n, Params: p, ErrorProb: e}, Priority: pri, ArrivalRate: lam}
	}
	silent := func(n int, p config.Params, pri config.Priority) LoadedGroup {
		return LoadedGroup{Group: Group{N: n, Params: p}, Priority: pri}
	}
	loadedCases := []struct {
		tag    string
		groups []LoadedGroup
	}{
		{"saturated", []LoadedGroup{sat(5, ca1, config.CA1, 0.1), sat(3, ca3, config.CA1, 0)}},
		{"saturated-lone", []LoadedGroup{sat(1, ca1, config.CA1, 0)}},
		{"heterogeneous", []LoadedGroup{sat(3, ca1, config.CA1, 0), sat(3, aggressive, config.CA1, 0)}},
		{"poisson-light", []LoadedGroup{poisson(4, ca1, config.CA1, 0, 1.0/80000)}},
		{"poisson-light-errors", []LoadedGroup{poisson(4, ca1, config.CA1, 0.3, 1.0/80000)}},
		{"poisson-medium", []LoadedGroup{poisson(6, ca1, config.CA1, 0, 1.0/25000)}},
		{"poisson-medium-errors", []LoadedGroup{poisson(6, ca1, config.CA1, 0.15, 1.0/25000)}},
		{"poisson-mixed", []LoadedGroup{poisson(3, ca1, config.CA1, 0, 1e-5), sat(2, ca1, config.CA1, 0), poisson(2, ca3, config.CA1, 0.1, 3e-5)}},
		{"overload", []LoadedGroup{poisson(8, ca1, config.CA1, 0, 1)}},
		{"silent-with-saturated", []LoadedGroup{sat(6, ca1, config.CA1, 0), silent(4, ca1, config.CA1)}},
		{"silent-only", []LoadedGroup{silent(4, ca1, config.CA1)}},
		{"starvation", []LoadedGroup{sat(3, ca3, config.CA3, 0), sat(5, ca1, config.CA1, 0), poisson(2, ca1, config.CA0, 0, 1e-4)}},
		{"sharing-1e-5", []LoadedGroup{poisson(2, ca3, config.CA3, 0, 1e-5), sat(5, ca1, config.CA1, 0)}},
		{"sharing-4e-5", []LoadedGroup{poisson(2, ca3, config.CA3, 0, 4e-5), sat(5, ca1, config.CA1, 0)}},
		{"sharing-1.2e-4", []LoadedGroup{poisson(2, ca3, config.CA3, 0, 1.2e-4), sat(5, ca1, config.CA1, 0)}},
		{"four-classes", []LoadedGroup{poisson(2, ca1, config.CA0, 0, 2e-5), poisson(1, ca3, config.CA2, 0.05, 1e-5),
			poisson(2, ca3, config.CA3, 0, 5e-6), poisson(3, ca1, config.CA1, 0, 1e-5), sat(1, ca1, config.CA0, 0)}},
		{"lone-loaded", []LoadedGroup{poisson(1, ca1, config.CA1, 0, 1e-4)}},
		{"lone-loaded-errors", []LoadedGroup{poisson(1, ca1, config.CA1, 0.2, 1e-4)}},
	}
	for _, c := range loadedCases {
		sol, err := SolveLoaded(c.groups, tm)
		if err != nil {
			t.Fatalf("%s: %v", c.tag, err)
		}
		for _, cs := range sol.Classes {
			fmt.Fprintf(&out, "loaded %s %s\n", c.tag, dump(cs))
		}
	}

	for n := 1; n <= 20; n++ {
		pred, err := SolveDCF(n, config.Default80211())
		if err != nil {
			t.Fatalf("dcf n=%d: %v", n, err)
		}
		fmt.Fprintf(&out, "dcf n=%d tau=%s gamma=%s iter=%d %s\n",
			n, ff(pred.Tau), ff(pred.Gamma), pred.Iterations, dump(MetricsFor(pred, n, tm)))
	}

	path := filepath.Join("testdata", "model-pin.golden")
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
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		gotLines, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("model pin drifted at line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("model pin drifted: %d lines, want %d", len(gotLines), len(wantLines))
	}
}
