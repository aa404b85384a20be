package experiments

import "testing"

// fingerprintPackets is the fixed sim-ddos-8sw prefix the fingerprint pins:
// this many packets after the replay's 25 warm-up chunks.
const fingerprintPackets = 100_000

// replayFingerprint is the exact state a fixed replay prefix leaves behind.
type replayFingerprint struct {
	Events, Delivered                     uint64
	Merged, Stale, SyncPackets, SyncBytes uint64
}

// TestDDoSReplayFingerprint replays a fixed prefix of the sim-ddos-8sw
// workload (BenchmarkDDoSReplay's set-up, warm-up included, then a fixed
// packet count) and pins its exact totals: engine events, messages
// delivered, and the detectors' summed EWO entries merged and stale, sync
// packets and sync bytes. A change meant to keep the simulator's behaviour
// keeps every one; a change meant to move one says which in its notes and
// updates the value here.
func TestDDoSReplayFingerprint(t *testing.T) {
	r, err := NewDDoSReplay()
	if err != nil {
		t.Fatal(err)
	}
	ev0, del0 := r.C.EventsProcessed(), r.C.NetworkTotals().MsgsDeliv
	m0, s0, p0, b0 := r.EWOStats()
	r.Run(fingerprintPackets)
	if got := r.Accounted(); got != r.Injected {
		t.Fatalf("%d of %d injected packets accounted", got, r.Injected)
	}
	m, s, p, b := r.EWOStats()
	got := replayFingerprint{
		Events: r.C.EventsProcessed() - ev0, Delivered: r.C.NetworkTotals().MsgsDeliv - del0,
		Merged: m - m0, Stale: s - s0, SyncPackets: p - p0, SyncBytes: b - b0,
	}
	want := replayFingerprint{
		Events: 1133332, Delivered: 710582,
		Merged: 2100042, Stale: 306488, SyncPackets: 6728, SyncBytes: 6503528,
	}
	per := func(v uint64) float64 { return float64(v) / fingerprintPackets }
	t.Logf("per packet: %.4f events, %.4f delivered, %.4f merged, %.4f stale, %.5f sync packets, %.2f sync bytes",
		per(got.Events), per(got.Delivered), per(got.Merged), per(got.Stale), per(got.SyncPackets), per(got.SyncBytes))
	if got != want {
		t.Fatalf("fingerprint of %d packets after warm-up:\n got %+v\nwant %+v", fingerprintPackets, got, want)
	}
}
