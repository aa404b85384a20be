package main

import "testing"

// runs returns n values spread evenly over [base-half, base+half].
func runs(n int, base, half float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base - half + 2*half*float64(i)/float64(n-1)
	}
	return xs
}

func TestCompareVerdict(t *testing.T) {
	for _, tc := range []struct {
		name           string
		parent, change []float64
		sign, bound    float64
		moreFailed     bool
		want           string
	}{
		{"claimable", runs(10, 100, 1), runs(10, 110, 1), 1, 0.2, false, "claimable"},
		{"claimable, lower is better", runs(10, 100, 1), runs(10, 80, 1), -1, 0.25, false, "claimable"},
		{"inside spread", runs(10, 100, 1), runs(10, 100.2, 1), 1, 0.2, false, "inside spread"},
		{"median worse than the bound", runs(10, 100, 1), runs(10, 70, 1), 1, 0.2, false, "worse"},
		{"loses every pair by more than the spread", runs(10, 100, 0.5), runs(10, 98, 0.5), 1, 0.2, false, "worse"},
		{"more failed ops", runs(10, 100, 1), runs(10, 110, 1), 1, 0.2, true, "worse"},
		{"parent spread wider than the bound", runs(10, 100, 40), runs(10, 100, 40), 1, 0.2, false, "unresolved"},
		{"change spread wider than the bound", runs(10, 100, 1), runs(10, 100, 40), -1, 0.2, false, "unresolved"},
		{"wide, but every change run is better", []float64{0, 0, 50, 100, 100}, []float64{101, 102, 103, 104, 105},
			1, 0.2, false, "inside spread"},
		{"three pairs all lost, inside the bound", runs(3, 100, 0.5), runs(3, 98, 0.5), 1, 0.2, false, "inside spread"},
		{"three pairs all won, inside the bound", runs(3, 100, 0.5), runs(3, 102, 0.5), 1, 0.2, false, "inside spread"},
		{"three pairs, median worse than the bound", runs(3, 100, 0.5), runs(3, 70, 0.5), 1, 0.2, false, "worse"},
		{"nine of ten pairs lost", runs(10, 100, 0.5), append(runs(9, 98, 0.5), 101), 1, 0.2, false, "worse"},
	} {
		if got := compare(tc.parent, tc.change, tc.sign, tc.bound, tc.moreFailed).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
