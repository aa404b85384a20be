package explore

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

// TestScenarioDigests pins the scenario generator and Normalize: a digest of
// GenerateWith(seed, f).Log() for seeds 1–600 on each fault set, followed by
// the normalized Log() of every shrink candidate of that seed (an episode
// dropped, the workload shortened, a replica removed, the spares dropped,
// ...), so Normalize is pinned on mutated inputs as well as generated ones.
func TestScenarioDigests(t *testing.T) {
	for _, tc := range []struct {
		faults FaultSet
		want   string
	}{
		{FaultsClassic, "16579ec204816ca11b60bd1387c3c4587e81238281ebebce23adc45fd42c3858"},
		{FaultsExtended, "0546ce597bd43d8dca057fcd5ad3b9cda9de17f136aff08b70f71e0fa6e59791"},
	} {
		h := sha256.New()
		for seed := int64(1); seed <= 600; seed++ {
			sc := GenerateWith(seed, tc.faults)
			h.Write([]byte(sc.Log()))
			for _, c := range candidates(sc) {
				h.Write([]byte(c.Normalize().Log()))
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("fault set %d: scenario digest %s, want %s", tc.faults, got, tc.want)
		}
	}
}

// runLogSeeds is TestRunLogDigests' seed slice. Between them its scenarios
// hold every episode kind of either fault set, and seeds 19, 23 and 75 each
// have a window that Normalize clamps to end one step before the workload.
var runLogSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 23, 75}

// TestRunLogDigests pins Run: a digest of Result.Log over runLogSeeds on each
// of the explorer's four legs, {classic, extended} faults × {chain,
// retransmit} backend. It costs 76 runs, ~0.5 s of tier 1 on a 2-CPU
// host.
func TestRunLogDigests(t *testing.T) {
	start := time.Now()
	for _, tc := range []struct {
		faults     FaultSet
		retransmit bool
		want       string
	}{
		{FaultsClassic, false, "4aee65554e7a7a1824a352cd1454334077946707e76a3e44a880efa70763b337"},
		{FaultsClassic, true, "9dfdad7ac3da80fdd26b156830b2c8a59b87e037981c3bf3fb6ed8f50e516f99"},
		{FaultsExtended, false, "11dddc452c4b3830361ce3b0bd3cbea4026bd2f74303aa1ce7698149148baeb0"},
		{FaultsExtended, true, "aa4a473740e39c030b7575b7365e3504687d44853429300d490ef69a0aa06945"},
	} {
		h := sha256.New()
		kinds := map[EpisodeKind]bool{}
		for _, seed := range runLogSeeds {
			sc := GenerateWith(seed, tc.faults)
			for _, e := range sc.Episodes {
				kinds[e.Kind] = true
			}
			h.Write([]byte(Run(sc, RunOptions{Retransmit: tc.retransmit}).Log))
		}
		want := 4
		if tc.faults == FaultsExtended {
			want = 8
		}
		if len(kinds) != want {
			t.Errorf("faults %d: the seed slice holds %d episode kinds, want %d", tc.faults, len(kinds), want)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("faults %d retransmit %v: run-log digest %s, want %s", tc.faults, tc.retransmit, got, tc.want)
		}
	}
	t.Logf("%d runs in %s", 4*len(runLogSeeds), time.Since(start))
}
