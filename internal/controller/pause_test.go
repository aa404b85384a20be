package controller

import (
	"slices"
	"testing"
	"time"

	"swishmem/internal/wire"
)

// TestPauseResumeFailureDetector is the table-driven face of the GC-pause
// trap: a switch that freezes and later resumes (stop-the-world pause,
// scheduler stall, control-plane hiccup) must land in exactly one of two
// clean outcomes. Either the pause is shorter than the failure timeout and
// the detector rides it out — no eviction, no reconfiguration, no spurious
// epoch bump — or it is longer, the switch is cleanly evicted, and on resume
// its heartbeats walk it back in via the spare path. What is never allowed
// is the in-between: a revived switch serving an old-epoch chain alongside
// the reconfigured one (split-brain membership).
func TestPauseResumeFailureDetector(t *testing.T) {
	// Rig constants: HeartbeatPeriod 200µs → failure timeout 800µs (failureBeats = 4).
	cases := []struct {
		name      string
		pause     time.Duration
		wantEvict bool
	}{
		// Max observed silence ≈ pause + one heartbeat period + link latency
		// ≈ 610µs < 800µs: the detector must ride this out.
		{"short-pause-rides-out", 400 * time.Microsecond, false},
		// 5ms of silence blows the timeout several times over: clean
		// eviction mid-pause, then rejoin through recovery after resume.
		{"long-pause-evicts-then-rejoins", 5 * time.Millisecond, true},
		// Pause straddling the threshold boundary region from above: barely
		// past the timeout still means a full, clean evict/rejoin cycle —
		// not a half-applied reconfiguration.
		{"marginal-pause-evicts-cleanly", 1200 * time.Microsecond, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 21, 3)
			r.ctrl.ManageChain(1, r.chainMembers(0, 1, 2), nil)
			r.ctrl.ManageGroup(2, r.groupMembers(0, 1, 2))
			r.eng.RunFor(2 * time.Millisecond)
			const victim = 1 // switch addr 2, chain middle
			epoch0 := r.ctrl.ChainEpoch(1)

			r.sws[victim].Pause()
			r.eng.RunFor(tc.pause)
			if got := r.ctrl.Dead(2); got != tc.wantEvict {
				t.Fatalf("mid-pause Dead(2) = %v, want %v", got, tc.wantEvict)
			}
			r.sws[victim].Resume()
			r.eng.RunFor(50 * time.Millisecond)

			// Whichever branch was taken, the detector must settle with the
			// victim alive again.
			if r.ctrl.Dead(2) {
				t.Fatal("resumed switch still marked dead")
			}
			if tc.wantEvict {
				if got := r.ctrl.Stats.Revivals.Value(); got != 1 {
					t.Fatalf("revivals = %d, want 1", got)
				}
				if got := r.ctrl.Stats.Recoveries.Value(); got != 1 {
					t.Fatalf("recoveries = %d, want 1 (rejoin must use the spare path)", got)
				}
				if e := r.ctrl.ChainEpoch(1); e <= epoch0 {
					t.Fatalf("epoch not advanced by evict/rejoin: %d -> %d", epoch0, e)
				}
			} else {
				if got := r.ctrl.Stats.FailuresSeen.Value(); got != 0 {
					t.Fatalf("short pause declared %d failures", got)
				}
				if got := r.ctrl.Stats.Revivals.Value(); got != 0 {
					t.Fatalf("revivals = %d without an eviction", got)
				}
				if e := r.ctrl.ChainEpoch(1); e != epoch0 {
					t.Fatalf("spurious reconfiguration: epoch %d -> %d", epoch0, e)
				}
			}

			// No split-brain: the highest epoch any node holds is the one true
			// configuration. Every node on that epoch must agree on membership
			// exactly, and no node the current chain lists as a member may
			// still be serving a stale epoch.
			var cur wire.ChainConfig
			for _, cn := range r.cNode {
				if cc := cn.Chain(); cc.Epoch > cur.Epoch {
					cur = cc
				}
			}
			for i, cn := range r.cNode {
				cc := cn.Chain()
				if cc.Epoch == cur.Epoch && !slices.Equal(cc.Members, cur.Members) {
					t.Fatalf("split-brain: node %d holds members %v, node(s) at epoch %d hold %v",
						i+1, cc.Members, cur.Epoch, cur.Members)
				}
				if cc.Epoch < cur.Epoch && slices.Contains(cur.Members, uint16(i+1)) {
					t.Fatalf("member %d of the epoch-%d chain still serves stale epoch %d",
						i+1, cur.Epoch, cc.Epoch)
				}
			}
			if len(cur.Members) != 3 {
				t.Fatalf("chain not back to full strength: %v", cur.Members)
			}

			// Functionally no split-brain either: a write threads the whole
			// (possibly re-formed) chain, and a counter delta reaches the
			// revived switch through the re-joined group.
			committed := false
			head := int(cur.Members[0]) - 1
			r.cNode[head].Write(7, []byte("postpause"), func(ok bool) { committed = ok })
			r.eNode[0].Add(42, 5)
			r.eng.RunFor(20 * time.Millisecond)
			if !committed {
				t.Fatal("write did not commit after pause/resume settled")
			}
			if got := r.eNode[victim].Sum(42); got != 5 {
				t.Fatalf("revived switch counter sum = %d, want 5 (group rejoin broken)", got)
			}
		})
	}
}
