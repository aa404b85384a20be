package livecluster

import (
	"testing"
	"time"

	"swishmem/internal/netem"
)

// quietCluster starts a controller and n lossless members whose periodic
// traffic — heartbeats, EWO sync — is an hour away, so after bootstrap the
// only datagrams a member sends are the ones a test makes it send.
func quietCluster(t *testing.T, n int) []*Member {
	t.Helper()
	addrs := make([]netem.Addr, n)
	for i := range addrs {
		addrs[i] = netem.Addr(i + 1)
	}
	ctrlFab, _, err := NewLiveController(1, "", addrs, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrlFab.Stop)
	ctrlFab.Start()
	members := make([]*Member, n)
	for i := range members {
		m, err := NewMember(MemberConfig{
			Addr: addrs[i], Seed: int64(i + 1), ControllerEP: ctrlFab.AddrPort(),
			HeartbeatPeriod: time.Hour, SyncPeriod: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Stop)
		m.Start()
		members[i] = m
	}
	if err := waitConfigured(members, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	return members
}

// One Post is one pump round and so one instant: its 32 adds leave the
// poster as one update per peer — two egress messages on three members, not
// 64 — and with sync an hour away those two are all the peers ever get.
func TestPostedBurstLeavesAsOneUpdatePerPeer(t *testing.T) {
	members := quietCluster(t, 3)
	poster := members[0]
	before := poster.Fabric.FStats().EgressMsgs
	poster.Fabric.Post(func() {
		for i := 0; i < 32; i++ {
			poster.Counter.Add(uint64(i%CounterKeys), 1)
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for _, m := range members {
		for {
			var total uint64
			m.Fabric.Call(func() {
				for k := uint64(0); k < CounterKeys; k++ {
					total += m.Counter.Sum(k)
				}
			})
			if total == 32 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("member %d sums to %d, want 32", m.Switch.Addr(), total)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if got := poster.Fabric.FStats().EgressMsgs - before; got != 2 {
		t.Fatalf("a post of 32 adds raised EgressMsgs by %d, want 2 (one update to each peer)", got)
	}
	var sent uint64
	poster.Fabric.Call(func() { sent = poster.Counter.Node().Stats.UpdatesSent.Value() })
	if sent != 1 {
		t.Fatalf("UpdatesSent = %d, want 1", sent)
	}
}
