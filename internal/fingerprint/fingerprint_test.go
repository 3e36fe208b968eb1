package fingerprint

import (
	"math"
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
	base := sumOf(func(h *Hasher) { h.String("x"); h.Float(1.5); h.Bool(true) })
	for name, write := range map[string]func(h *Hasher){
		"string":  func(h *Hasher) { h.String("y"); h.Float(1.5); h.Bool(true) },
		"float":   func(h *Hasher) { h.String("x"); h.Float(1.6); h.Bool(true) },
		"bool":    func(h *Hasher) { h.String("x"); h.Float(1.5); h.Bool(false) },
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
