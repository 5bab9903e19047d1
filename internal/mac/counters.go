// Package mac implements the full event-driven IEEE 1901 station MAC
// and the single-contention-domain network that the emulated testbed
// (internal/device, internal/testbed) is built on.
//
// Where internal/sim reproduces the paper's minimal slot-based
// simulator (single priority, one frame per transmission, no
// management traffic), this package adds the mechanisms the paper's
// *measurement* methodology interacts with:
//
//   - the four channel-access priorities with the priority-resolution
//     phase (only the highest contending class runs the backoff);
//   - frame bursting (up to four MPDUs contend as one unit, MPDUCnt
//     counting down — Section 3.1);
//   - selective acknowledgments that also acknowledge collided frames
//     with an all-blocks-errored indication (Section 3.2), feeding
//     firmware-style per-link counters;
//   - management-message traffic at CA2/CA3 whose overhead the sniffer
//     methodology of Section 3.3 measures;
//   - pluggable PB error models for the failure-injection experiments.
//
// The per-station backoff process itself is the exact same
// internal/backoff machine the minimal simulator runs, which is what
// makes the "HomePlug AV measurements" curve of Figure 2 land on the
// "MAC simulation" curve.
package mac

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/hpav"
)

// LinkKey identifies a firmware counter bucket: statistics are kept per
// peer address, priority and direction, which is exactly the query key
// of ampstat's 0xA030 request.
type LinkKey struct {
	Peer      hpav.MAC
	Priority  config.Priority
	Direction hpav.StatsDirection
}

// LinkCounters are the two counters of the INT6300 statistics block the
// paper reads: acknowledged MPDUs (including collided ones, which the
// destination acknowledges as all-errored) and collided MPDUs.
type LinkCounters struct {
	Acked    uint64
	Collided uint64
}

// Counters is a station's firmware counter block. It is safe for
// concurrent use: the simulation goroutine writes while management
// tooling (ampstat over UDP) reads.
//
// The mutex guards the key → bucket map; the bucket counters are
// atomic. The medium resolves a flow's buckets once (link) and then
// adds to them without the mutex until Reset or ResetAll bumps the
// block's generation, which makes every cached bucket stale.
type Counters struct {
	mu  sync.Mutex
	m   map[LinkKey]*linkBucket
	gen atomic.Uint64
}

// linkBucket is the live storage of one LinkKey's counters.
type linkBucket struct {
	acked, collided atomic.Uint64
}

// cachedLink is a bucket pointer resolved at generation gen of its
// counter block; the zero value is unresolved.
type cachedLink struct {
	b   *linkBucket
	gen uint64
}

// NewCounters returns an empty counter block.
func NewCounters() *Counters {
	c := &Counters{m: make(map[LinkKey]*linkBucket)}
	c.gen.Store(1) // generation 0 marks an unresolved cachedLink
	return c
}

// bucket returns k's bucket, creating it; c.mu must be held.
func (c *Counters) bucket(k LinkKey) *linkBucket {
	b := c.m[k]
	if b == nil {
		b = &linkBucket{}
		c.m[k] = b
	}
	return b
}

// link returns k's bucket through the cache l, resolving it again only
// when the block was reset since l was filled. An add racing a reset
// may land in the bucket the reset just dropped, which orders the add
// before the reset; sequential callers always see every add.
//
//plclint:noalloc
func (c *Counters) link(k LinkKey, l *cachedLink) *linkBucket {
	if l.gen == c.gen.Load() {
		return l.b
	}
	return c.resolve(k, l)
}

// resolve fills l with k's bucket at the current generation.
func (c *Counters) resolve(k LinkKey, l *cachedLink) *linkBucket {
	c.mu.Lock()
	defer c.mu.Unlock()
	l.b, l.gen = c.bucket(k), c.gen.Load()
	return l.b
}

// AddAcked increments the acknowledged-MPDU counter of a link.
func (c *Counters) AddAcked(k LinkKey, n uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bucket(k).acked.Add(n)
}

// AddCollided increments the collided-MPDU counter of a link.
func (c *Counters) AddCollided(k LinkKey, n uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bucket(k).collided.Add(n)
}

// Fetch returns the current counters of a link (zeros if never used).
func (c *Counters) Fetch(k LinkKey) LinkCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b := c.m[k]; b != nil {
		return LinkCounters{Acked: b.acked.Load(), Collided: b.collided.Load()}
	}
	return LinkCounters{}
}

// Reset clears the counters of one link, mirroring ampstat's reset
// command ("we reset the statistics of the frames transmitted at all
// the stations at the beginning of each test").
func (c *Counters) Reset(k LinkKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, k)
	c.gen.Add(1)
}

// ResetAll clears every bucket.
func (c *Counters) ResetAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[LinkKey]*linkBucket)
	c.gen.Add(1)
}

// Keys returns the populated link keys in a deterministic order, for
// reports and tests.
func (c *Counters) Keys() []LinkKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]LinkKey, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		for x := 0; x < 6; x++ {
			if a.Peer[x] != b.Peer[x] {
				return a.Peer[x] < b.Peer[x]
			}
		}
		if a.Priority != b.Priority {
			return a.Priority < b.Priority
		}
		return a.Direction < b.Direction
	})
	return keys
}
