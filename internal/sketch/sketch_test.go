package sketch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCountMinValidation(t *testing.T) {
	if _, err := NewCountMin(0, 3); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewCountMin(100, 0); err == nil {
		t.Error("zero depth accepted")
	}
	s, err := NewCountMin(128, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Width() != 128 || s.Depth() != 4 || s.Bytes() != 128*4*8 {
		t.Fatal("geometry")
	}
}

func TestNeverUnderestimates(t *testing.T) {
	s, _ := NewCountMin(64, 3)
	truth := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		k := uint64(rng.Intn(200))
		s.Add(k, 1)
		truth[k]++
	}
	for k, want := range truth {
		if got := s.Estimate(k); got < want {
			t.Fatalf("key %d underestimated: %d < %d", k, got, want)
		}
	}
	if s.Total() != 10000 {
		t.Fatalf("total = %d", s.Total())
	}
}

func TestErrorBound(t *testing.T) {
	// With w >= e/eps, error <= eps*N with prob 1-(1/2)^d per key: sized for
	// eps = 0.01, delta = 0.001 (w = ceil(e/eps), d = ceil(ln(1/delta))).
	s, _ := NewCountMin(272, 7)
	rng := rand.New(rand.NewSource(2))
	truth := map[uint64]uint64{}
	const N = 100000
	for i := 0; i < N; i++ {
		k := uint64(rng.Intn(5000))
		s.Add(k, 1)
		truth[k]++
	}
	bad := 0
	for k, want := range truth {
		if s.Estimate(k) > want+uint64(0.02*N) {
			bad++
		}
	}
	if bad > len(truth)/100 {
		t.Fatalf("%d/%d keys exceed error bound", bad, len(truth))
	}
}

func TestMergeAdditive(t *testing.T) {
	a, _ := NewCountMin(64, 3)
	b, _ := NewCountMin(64, 3)
	a.Add(1, 10)
	b.Add(1, 5)
	b.Add(2, 7)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate(1) < 15 || a.Estimate(2) < 7 {
		t.Fatalf("merged estimates: %d %d", a.Estimate(1), a.Estimate(2))
	}
	if a.Total() != 22 {
		t.Fatalf("total = %d", a.Total())
	}
	c, _ := NewCountMin(32, 3)
	if err := a.Merge(c); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestMergeMaxIdempotent(t *testing.T) {
	a, _ := NewCountMin(64, 3)
	b, _ := NewCountMin(64, 3)
	b.Add(42, 100)
	// Applying the same remote sub-sketch twice must not double-count —
	// the property that makes MergeMax safe under duplicated delivery.
	if err := a.MergeMax(b); err != nil {
		t.Fatal(err)
	}
	first := a.Estimate(42)
	if err := a.MergeMax(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate(42) != first {
		t.Fatalf("MergeMax not idempotent: %d then %d", first, a.Estimate(42))
	}
	if first < 100 {
		t.Fatalf("estimate = %d", first)
	}
	c, _ := NewCountMin(64, 4)
	if err := a.MergeMax(c); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestMergeCommutativeProperty(t *testing.T) {
	f := func(keysA, keysB []uint8) bool {
		a1, _ := NewCountMin(32, 3)
		b1, _ := NewCountMin(32, 3)
		for _, k := range keysA {
			a1.Add(uint64(k), 1)
		}
		for _, k := range keysB {
			b1.Add(uint64(k), 1)
		}
		a2, b2 := b1.Clone(), a1.Clone() // swapped
		a1.Merge(b1)
		a2.Merge(b2)
		for k := uint64(0); k < 256; k++ {
			if a1.Estimate(k) != a2.Estimate(k) {
				return false
			}
		}
		return a1.Total() == a2.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	a, _ := NewCountMin(16, 2)
	a.Add(1, 5)
	b := a.Clone()
	b.Add(1, 5)
	if a.Estimate(1) != 5 {
		t.Fatal("clone aliases original")
	}
	if b.Estimate(1) < 10 {
		t.Fatal("clone broken")
	}
}

func TestReset(t *testing.T) {
	a, _ := NewCountMin(16, 2)
	a.Add(1, 5)
	a.Reset()
	if a.Estimate(1) != 0 || a.Total() != 0 {
		t.Fatal("reset incomplete")
	}
}

func BenchmarkSketchAdd(b *testing.B) {
	s, _ := NewCountMin(4096, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(uint64(i), 1)
	}
}

func BenchmarkSketchEstimate(b *testing.B) {
	s, _ := NewCountMin(4096, 4)
	for i := 0; i < 100000; i++ {
		s.Add(uint64(i%1000), 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Estimate(uint64(i % 1000))
	}
}
