package fingerprint

import (
	"math"
	"sync"
	"testing"
)

func sumOf(write func(h *Hasher)) Key {
	h := New()
	defer h.Release()
	write(h)
	return h.Sum()
}

func TestDeterministic(t *testing.T) {
	a := sumOf(func(h *Hasher) { h.String("x"); h.Float(1.5); h.Int(-3) })
	b := sumOf(func(h *Hasher) { h.String("x"); h.Float(1.5); h.Int(-3) })
	if a != b {
		t.Error("identical writes produced different keys")
	}
}

func TestFieldSensitivity(t *testing.T) {
	base := sumOf(func(h *Hasher) { h.String("x"); h.Float(1.5); h.Int(1) })
	for name, write := range map[string]func(h *Hasher){
		"string":  func(h *Hasher) { h.String("y"); h.Float(1.5); h.Int(1) },
		"float":   func(h *Hasher) { h.String("x"); h.Float(1.6); h.Int(1) },
		"int":     func(h *Hasher) { h.String("x"); h.Float(1.5); h.Int(0) },
		"missing": func(h *Hasher) { h.String("x"); h.Float(1.5) },
	} {
		if sumOf(write) == base {
			t.Errorf("%s change did not alter the key", name)
		}
	}
}

func TestStringLengthPrefixPreventsAmbiguity(t *testing.T) {
	a := sumOf(func(h *Hasher) { h.String("ab"); h.String("c") })
	b := sumOf(func(h *Hasher) { h.String("a"); h.String("bc") })
	if a == b {
		t.Error(`"ab"+"c" and "a"+"bc" collided`)
	}
}

func TestFloatBitPatterns(t *testing.T) {
	zero := sumOf(func(h *Hasher) { h.Float(0) })
	negZero := sumOf(func(h *Hasher) { h.Float(math.Copysign(0, -1)) })
	if zero == negZero {
		t.Error("0 and -0 collided; fingerprints are bit-pattern-exact")
	}
}

func TestPoolReuseStartsClean(t *testing.T) {
	h := New()
	h.String("leftover state")
	h.Release()
	a := sumOf(func(h *Hasher) { h.Int(1) })
	b := sumOf(func(h *Hasher) { h.Int(1) })
	if a != b {
		t.Error("pooled hasher leaked state between uses")
	}
}

// freeze returns the Prefix of an encoding.
func freeze(write func(h *Hasher)) Prefix {
	h := New()
	defer h.Release()
	write(h)
	return h.Freeze()
}

// sumAfter resumes p and hashes the suffix write encodes.
func sumAfter(p Prefix, write func(h *Hasher)) Key {
	h := New()
	defer h.Release()
	write(h)
	return h.SumAfter(p)
}

// TestSumAfterMatchesSum splits encodings of every length around the
// 64-byte SHA-256 block at every point: resuming the prefix's saved
// state and hashing the rest is Sum over the whole encoding.
func TestSumAfterMatchesSum(t *testing.T) {
	for n := 0; n <= 200; n += 7 {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i*31 + n)
		}
		want := sumOf(func(h *Hasher) { h.buf = append(h.buf, msg...) })
		for cut := 0; cut <= n; cut++ {
			p := freeze(func(h *Hasher) { h.buf = append(h.buf, msg[:cut]...) })
			if got := sumAfter(p, func(h *Hasher) { h.buf = append(h.buf, msg[cut:]...) }); got != want {
				t.Fatalf("len %d cut %d: resumed key differs from Sum", n, cut)
			}
		}
	}
	empty := sumAfter(Prefix{}, func(h *Hasher) { h.Uint64(7) })
	if empty != sumOf(func(h *Hasher) { h.Uint64(7) }) {
		t.Error("the zero Prefix is not the empty prefix")
	}
}

// TestSumAfterAllocatesNothing pins a resumed key to zero steady-state
// allocations: the digest and its scratch live with the Hasher, which
// the pool keeps. (The Hasher is held, not pooled, while measuring:
// under -race sync.Pool drops items at random.)
func TestSumAfterAllocatesNothing(t *testing.T) {
	p := freeze(func(h *Hasher) { h.String("static fields") })
	h := New()
	defer h.Release()
	seed := uint64(0)
	if n := testing.AllocsPerRun(100, func() {
		seed++
		h.Reset()
		h.Uint64(seed)
		h.Int(2023)
		_ = h.SumAfter(p)
	}); n != 0 {
		t.Errorf("SumAfter allocates %v times, want 0", n)
	}
}

// TestSharedPrefixConcurrentResume resumes one Prefix from 8 goroutines'
// pooled Hashers at once; under -race it proves the saved state is only
// read, and every key matches the serial one.
func TestSharedPrefixConcurrentResume(t *testing.T) {
	p := freeze(func(h *Hasher) { h.String("shared"); h.Float(1.5) })
	want := func(seed uint64) Key {
		return sumOf(func(h *Hasher) { h.String("shared"); h.Float(1.5); h.Uint64(seed) })
	}
	var wg sync.WaitGroup
	bad := make(chan uint64, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				seed := uint64(g*1000 + i)
				if sumAfter(p, func(h *Hasher) { h.Uint64(seed) }) != want(seed) {
					bad <- seed
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(bad)
	for seed := range bad {
		t.Errorf("seed %d: concurrent resumed key differs from Sum", seed)
	}
}

func BenchmarkHasherSmall(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := New()
		h.String("Frontier")
		for f := 0; f < 24; f++ {
			h.Float(float64(f) * 1.5)
		}
		h.Uint64(42)
		_ = h.Sum()
		h.Release()
	}
}
