// Package sketch implements the approximate data structure used by the
// write-intensive NFs of §4.2: a count-min sketch for per-IP frequency
// tracking (the DDoS detector's state).
//
// Sketches are mergeable — counters are commutative — which is exactly why
// the paper classifies them as ideal EWO state (Observation 2): a per-switch
// sketch replicated as a vector of per-switch sub-sketches converges under
// eventual consistency, and the merged estimate is the sum of elements.
package sketch

import (
	"fmt"
	"math"
)

// CountMin is a count-min sketch: d rows of w counters. Point queries
// overestimate by at most N*e/w with probability 1-(1/2)^d, where N is the
// total count.
type CountMin struct {
	w, d  int
	rows  [][]uint64
	seeds []uint64
	total uint64
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

// Width returns the number of counters per row.
func (s *CountMin) Width() int { return s.w }

// Depth returns the number of rows.
func (s *CountMin) Depth() int { return s.d }

// Bytes returns the memory footprint in bytes (8 bytes per counter), the
// quantity charged against the switch SRAM budget.
func (s *CountMin) Bytes() int { return s.w * s.d * 8 }

// Total returns the sum of all inserted counts.
func (s *CountMin) Total() uint64 { return s.total }

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
	s.total += delta
}

// Estimate returns the (over-)estimate of key's count.
func (s *CountMin) Estimate(key uint64) uint64 {
	min := uint64(math.MaxUint64)
	for r := 0; r < s.d; r++ {
		if v := s.rows[r][s.index(r, key)]; v < min {
			min = v
		}
	}
	return min
}

// Merge adds other's counters cell-wise into s. The sketches must have
// identical geometry.
func (s *CountMin) Merge(other *CountMin) error {
	if s.w != other.w || s.d != other.d {
		return fmt.Errorf("sketch: merge geometry mismatch: %dx%d vs %dx%d", s.d, s.w, other.d, other.w)
	}
	for r := range s.rows {
		for c := range s.rows[r] {
			s.rows[r][c] += other.rows[r][c]
		}
	}
	s.total += other.total
	return nil
}

// MergeMax takes the cell-wise maximum — the G-counter CRDT merge used when
// a remote switch re-announces its own full sub-sketch: max is idempotent
// under duplicated delivery, unlike addition.
func (s *CountMin) MergeMax(other *CountMin) error {
	if s.w != other.w || s.d != other.d {
		return fmt.Errorf("sketch: merge geometry mismatch: %dx%d vs %dx%d", s.d, s.w, other.d, other.w)
	}
	for r := range s.rows {
		for c := range s.rows[r] {
			if other.rows[r][c] > s.rows[r][c] {
				s.rows[r][c] = other.rows[r][c]
			}
		}
	}
	if other.total > s.total {
		s.total = other.total
	}
	return nil
}

// Reset zeroes all counters.
func (s *CountMin) Reset() {
	for r := range s.rows {
		for c := range s.rows[r] {
			s.rows[r][c] = 0
		}
	}
	s.total = 0
}

// Clone returns a deep copy.
func (s *CountMin) Clone() *CountMin {
	c, _ := NewCountMin(s.w, s.d)
	for r := range s.rows {
		copy(c.rows[r], s.rows[r])
	}
	c.total = s.total
	return c
}
