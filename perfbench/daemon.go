package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// daemon is an in-process serve.Server behind a loopback HTTP listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan struct{}
}

// startDaemon creates a server and serves it on 127.0.0.1, returning
// once GET /readyz answers 200.
func startDaemon(cfg serve.Config) (*daemon, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: loadGoroutines + 1,
			DisableCompression:  true,
		}},
		served: make(chan struct{}),
	}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("server not ready after 10 s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the listener and every connection, then the server, and
// waits for the serving goroutine to end.
func (d *daemon) stop() {
	_ = d.hs.Close() // the listener's close error is of no use here
	<-d.served
	d.srv.Close()
	d.client.CloseIdleConnections()
}

// setupDaemons starts a server setupRepeats times, each with a fresh
// config, and returns the last one running plus every set-up time:
// serve.New until the listener is up and /readyz answers 200.
func setupDaemons(cfg func() (serve.Config, error)) (*daemon, []float64, error) {
	var times []float64
	for {
		c, err := cfg()
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		d, err := startDaemon(c)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if len(times) == setupRepeats {
			return d, times, nil
		}
		d.stop()
	}
}

// counters scrapes GET /metrics and sums each named family.
func (d *daemon) counters(names ...string) (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(names))
	for _, name := range names {
		if f := fams[name]; f != nil {
			for _, s := range f.Samples {
				if s.Name == name {
					out[name] += s.Value
				}
			}
		}
	}
	return out, nil
}

// counterCheck compares client tallies with /metrics deltas and records
// every disagreement as a problem.
func counterCheck(ph *phase, before, after map[string]float64, want map[string]int64) {
	for name, n := range want {
		if got := after[name] - before[name]; got != float64(n) {
			ph.problem("counter %s moved by %g, client tallied %d", name, got, n)
		}
	}
}
