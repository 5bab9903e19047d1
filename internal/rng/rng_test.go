package rng

import (
	"math"
	"math/big"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams with different seeds produced %d equal draws out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(0)
	c2 := parent.Split(1)
	c1again := parent.Split(0)
	// Same label → same stream.
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c1again.Uint64() {
			t.Fatal("Split(0) called twice produced different streams")
		}
	}
	// Different labels → different streams.
	c1 = parent.Split(0)
	equal := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			equal++
		}
	}
	if equal > 0 {
		t.Errorf("sibling streams share %d of 100 draws", equal)
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a, b := New(9), New(9)
	_ = a.Split(5)
	_ = a.Split(6)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split advanced the parent stream")
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 7, 8, 16, 63, 64, 1000} {
		for i := 0; i < 2000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

// TestIntnUniform checks that Intn(8) — the stage-0 backoff draw — is
// uniform within 4 standard deviations per bucket.
func TestIntnUniform(t *testing.T) {
	s := New(11)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	mean := float64(draws) / n
	sigma := math.Sqrt(mean * (1 - 1.0/n))
	for v, c := range counts {
		if d := math.Abs(float64(c) - mean); d > 4*sigma {
			t.Errorf("bucket %d: count %d deviates %.1fσ from mean %.0f", v, c, d/sigma, mean)
		}
	}
}

func TestBackoffMatchesUnidrnd(t *testing.T) {
	// Backoff(cw) must cover {0,…,cw−1} like MATLAB's unidrnd(cw)−1.
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		seen[s.Backoff(8)] = true
	}
	for v := 0; v < 8; v++ {
		if !seen[v] {
			t.Errorf("Backoff(8) never produced %d in 1000 draws", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(13)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(17)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if s.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !s.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	s := New(19)
	const p, draws = 0.3, 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if s.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.01 {
		t.Errorf("Bernoulli(%v) empirical mean %v", p, got)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(23)
	const mean, draws = 250.0, 200000
	var sum float64
	for i := 0; i < draws; i++ {
		v := s.Exponential(mean)
		if v < 0 {
			t.Fatalf("Exponential produced negative %v", v)
		}
		sum += v
	}
	got := sum / draws
	if math.Abs(got-mean)/mean > 0.02 {
		t.Errorf("Exponential(%v) empirical mean %v", mean, got)
	}
	if s.Exponential(0) != 0 || s.Exponential(-1) != 0 {
		t.Error("Exponential with non-positive mean should return 0")
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(29)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

// Property: Intn stays in range for arbitrary seeds and bounds.
func TestIntnRangeProperty(t *testing.T) {
	f := func(seed uint64, bound uint16) bool {
		n := int(bound)%1024 + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			if v := s.Intn(n); v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Split is a pure function of (parent state, id).
func TestSplitDeterministicProperty(t *testing.T) {
	f := func(seed, id uint64) bool {
		p := New(seed)
		a, b := p.Split(id), p.Split(id)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// yielding returns a source whose next Uint64 output is x: xoshiro256**
// outputs rotl(s1·5, 7)·9, and 5 and 9 are invertible mod 2⁶⁴.
func yielding(x uint64) *Source {
	inv := func(a uint64) uint64 { // Newton's iteration for a⁻¹ mod 2⁶⁴
		y := a
		for i := 0; i < 6; i++ {
			y *= 2 - a*y
		}
		return y
	}
	return &Source{s1: bits.RotateLeft64(x*inv(9), -7) * inv(5)}
}

// TestIntnProductMatchesBig checks the 128-bit product behind Intn
// against math/big: whenever Lemire's draw accepts its first 64-bit
// output x, Intn(n) must return ⌊x·n / 2⁶⁴⌋ exactly. Edge operands
// cover the 32-bit limb boundaries and the top of the range; random
// pairs span every magnitude of n.
func TestIntnProductMatchesBig(t *testing.T) {
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	check := func(x uint64, n int) bool {
		if got := yielding(x).Uint64(); got != x {
			t.Fatalf("yielding(%d) produced %d", x, got)
		}
		p := new(big.Int).Mul(new(big.Int).SetUint64(x), big.NewInt(int64(n)))
		hi, lo := new(big.Int).DivMod(p, two64, new(big.Int))
		threshold := new(big.Int).Mod(two64, big.NewInt(int64(n)))
		if lo.Cmp(threshold) < 0 {
			return false // rejected: Intn draws again
		}
		if got := yielding(x).Intn(n); uint64(got) != hi.Uint64() {
			t.Errorf("Intn(%d) with x=%d = %d, want %v", n, x, got, hi)
		}
		return true
	}

	edges := []uint64{0, 1, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 63, math.MaxUint64}
	accepted := 0
	for _, x := range edges {
		for _, n := range edges {
			if n == 0 || n > math.MaxInt {
				continue
			}
			if check(x, int(n)) {
				accepted++
			}
		}
		if check(x, math.MaxInt) {
			accepted++
		}
	}
	if accepted < 20 {
		t.Errorf("only %d edge pairs accepted on the first draw", accepted)
	}

	src := New(77)
	for i := 0; i < 20000; i++ {
		x := src.Uint64()
		n := max(1, int(src.Uint64()>>(1+src.Intn(63))))
		check(x, n)
	}
}
