package stats

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }
