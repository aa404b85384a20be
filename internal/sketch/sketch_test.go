package sketch

import (
	"math/rand"
	"testing"
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
	if len(s.rows) != 4 || len(s.rows[0]) != 128 {
		t.Fatal("geometry")
	}
}

// estimate is the count-min point query: the smallest of key's counters.
func estimate(s *CountMin, key uint64) uint64 {
	est := s.rows[0][s.index(0, key)]
	for r := 1; r < s.d; r++ {
		est = min(est, s.rows[r][s.index(r, key)])
	}
	return est
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
		if got := estimate(s, k); got < want {
			t.Fatalf("key %d underestimated: %d < %d", k, got, want)
		}
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
		if estimate(s, k) > want+uint64(0.02*N) {
			bad++
		}
	}
	if bad > len(truth)/100 {
		t.Fatalf("%d/%d keys exceed error bound", bad, len(truth))
	}
}

func BenchmarkSketchAdd(b *testing.B) {
	s, _ := NewCountMin(4096, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(uint64(i), 1)
	}
}
