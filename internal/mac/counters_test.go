package mac

import (
	"sync"
	"testing"

	"repro/internal/hpav"
	"repro/internal/rng"
)

// TestCountersConcurrentWithRun reads and resets every counter block
// from one goroutine while another runs the medium — the management
// plane polling a live strip; `make race` checks it for data races.
// Once both stop, a final ResetAll and one more Run must leave tx Acked
// buckets that sum to exactly the run's acknowledged MPDUs.
func TestCountersConcurrentWithRun(t *testing.T) {
	nw, stations, dst := buildSaturated(4, 2, 41)
	stations[1].SetFrameError(0.2, rng.New(41).Split(77))
	all := append([]*Station{dst}, stations...)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c := all[i%len(all)].Counters()
			for _, k := range c.Keys() {
				c.Fetch(k)
			}
			switch i % 7 {
			case 3:
				if keys := c.Keys(); len(keys) > 0 {
					c.Reset(keys[0])
				}
			case 6:
				c.ResetAll()
			}
		}
	}()
	for i := 0; i < 40; i++ {
		nw.Run(1e5)
	}
	close(stop)
	wg.Wait()

	for _, s := range all {
		s.Counters().ResetAll()
	}
	before := nw.Stats()
	nw.Run(1e6)
	after := nw.Stats()
	var tx, rx uint64
	for _, s := range all {
		c := s.Counters()
		for _, k := range c.Keys() {
			if k.Direction == hpav.DirectionTx {
				tx += c.Fetch(k).Acked
			} else {
				rx += c.Fetch(k).Acked
			}
		}
	}
	acked := (after.SuccessMPDUs - before.SuccessMPDUs) + (after.CollidedMPDUs - before.CollidedMPDUs) +
		(after.FrameErrorMPDUs - before.FrameErrorMPDUs)
	if acked == 0 || after.FrameErrors == before.FrameErrors || after.Collisions == before.Collisions {
		t.Fatalf("run exercised too little: %+v → %+v", before, after)
	}
	if tx != uint64(acked) {
		t.Errorf("tx Acked buckets sum to %d, want %d acknowledged MPDUs", tx, acked)
	}
	// The destination mirrors every burst that reached it alone.
	if want := (after.SuccessMPDUs - before.SuccessMPDUs) + (after.FrameErrorMPDUs - before.FrameErrorMPDUs); rx != uint64(want) {
		t.Errorf("rx Acked buckets sum to %d, want %d", rx, want)
	}
}
