// Package sketch is a bare count-min sketch (§4.2's per-IP frequency
// tracker) kept only for bench/'s sketch.update probe, which times Add: the
// DDoS detector (internal/nf/ddos) keeps its sketch in EWO counter registers
// and does not import this package.
package sketch

import "fmt"

// CountMin is a count-min sketch: d rows of w counters.
type CountMin struct {
	w, d  int
	rows  [][]uint64
	seeds []uint64
}

// NewCountMin builds a sketch with the given width and depth.
func NewCountMin(width, depth int) (*CountMin, error) {
	if width <= 0 || depth <= 0 {
		return nil, fmt.Errorf("sketch: width and depth must be positive (got %d, %d)", width, depth)
	}
	s := &CountMin{w: width, d: depth}
	s.rows = make([][]uint64, depth)
	s.seeds = make([]uint64, depth)
	for i := range s.rows {
		s.rows[i] = make([]uint64, width)
		// Fixed distinct odd seeds: deterministic across switches so the
		// replicated sub-sketches are structurally identical and mergeable.
		s.seeds[i] = 0x9e3779b97f4a7c15*uint64(i+1) | 1
	}
	return s, nil
}

func (s *CountMin) index(row int, key uint64) int {
	h := key ^ s.seeds[row]
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int(h % uint64(s.w))
}

// Add increments key's count by delta.
func (s *CountMin) Add(key uint64, delta uint64) {
	for r := 0; r < s.d; r++ {
		s.rows[r][s.index(r, key)] += delta
	}
}
