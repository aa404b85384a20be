package livecluster

import (
	"encoding/binary"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"swishmem"
	"swishmem/internal/netem"
	"swishmem/internal/netem/live"
	"swishmem/internal/obs"
	"swishmem/internal/wire"
)

// quietCluster starts a controller and n lossless members whose timers —
// heartbeats, EWO sync, the Hello ticker, write retries — are out of a
// test's reach, so after bootstrap the only datagrams a member sends and the
// only engine deadlines its pump wakes for are the ones a test causes.
func quietCluster(t *testing.T, n int) []*Member {
	t.Helper()
	return quietClusterResend(t, n, 0)
}

// quietClusterResend is quietCluster with the controller's config re-send
// period chosen too: at an hour (loopback loses nothing) a member's engine
// runs no event a test did not cause. 0 is the controller's default, 100 ms.
func quietClusterResend(t *testing.T, n int, resend time.Duration) []*Member {
	t.Helper()
	addrs := make([]netem.Addr, n)
	for i := range addrs {
		addrs[i] = netem.Addr(i + 1)
	}
	ctrlFab, _, err := NewLiveController(1, "", addrs, time.Hour, resend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrlFab.Stop)
	ctrlFab.Start()
	members := make([]*Member, n)
	for i := range members {
		m, err := NewMember(MemberConfig{
			Addr: addrs[i], Seed: int64(i + 1), ControllerEP: ctrlFab.AddrPort(),
			HeartbeatPeriod: time.Hour, SyncPeriod: time.Hour, HelloPeriod: time.Hour,
			RetryTimeout: 5 * time.Second,
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

func timerWakes(members []*Member) (n uint64) {
	for _, m := range members {
		n += m.Fabric.FStats().TimerWakes
	}
	return n
}

// A member's control plane is this process: a posted write is submitted —
// its wire.Write handed to the egress — in the pump round that took the
// post, not in a second round that a Go timer has to start once a modelled
// co-processor latency has passed on the wall clock.
func TestPostedWriteSubmitsInItsPumpRound(t *testing.T) {
	members := quietCluster(t, 3)
	w := members[1] // not the head: the write has to cross the socket
	var ops, wakes [2]uint64
	sample := func(i int) {
		ops[i] = w.Switch.Stats.CtrlOps.Value()
		wakes[i] = w.Fabric.FStats().TimerWakes
	}
	committed := make(chan bool, 1)
	// The sampling round also brings the engine clock up to the wall clock, so
	// a modelled delay counted from it would still be ahead in the next round.
	w.Fabric.Call(func() { sample(0) })
	w.Fabric.Call(func() {
		w.Strong.Write(7, []byte("12345678"), func(ok bool) { committed <- ok })
	})
	// This Call's post arrives after the round above swapped its queue, so it
	// runs in a later round — in the next one, unless a timer started one
	// in between.
	w.Fabric.Call(func() { sample(1) })
	if ops[1] != ops[0]+1 {
		t.Errorf("control-plane ops after the posting round = %d, want %d: the submit is still waiting for a deadline",
			ops[1], ops[0]+1)
	}
	if wakes[1] != wakes[0] {
		t.Errorf("%d timer-started pump round(s) between the post and the next round", wakes[1]-wakes[0])
	}
	select {
	case ok := <-committed:
		if !ok {
			t.Fatal("write failed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("write never committed")
	}
}

// Under a steady posted write load no member wakes for an engine deadline:
// every hop of every write runs in the round its post or datagram started.
// With pisa's default (simulator) timing the writer alone takes a timer wake
// for about every other write.
func TestPostedWriteLoadTakesNoTimerWakes(t *testing.T) {
	members := quietCluster(t, 3)
	const window, total = 32, 3000
	done := make(chan bool, window) // commit callbacks run on a pump: never block one
	post := func(i int) {
		m := members[i%len(members)]
		val := binary.BigEndian.AppendUint64(nil, uint64(i))
		m.Fabric.Post(func() {
			m.Strong.Write(uint64(i%StrongCapacity), val, func(ok bool) { done <- ok })
		})
	}
	before := timerWakes(members)
	for i := 0; i < window; i++ {
		post(i)
	}
	timeout := time.After(60 * time.Second)
	for n := 0; n < total; n++ {
		select {
		case ok := <-done:
			if !ok {
				t.Fatalf("write %d failed", n)
			}
		case <-timeout:
			t.Fatalf("%d of %d writes committed", n, total)
		}
		if next := n + window; next < total {
			post(next)
		}
	}
	if wakes := timerWakes(members) - before; float64(wakes) > 0.02*total {
		t.Fatalf("%d timer-started pump rounds for %d committed writes (%.3f per write), want <= 0.02 per write",
			wakes, total, float64(wakes)/total)
	}
}

// engineEvents sums over members what live.fabric.engine_events exports: the
// fabric engine's processed-event count, read on the pump.
func engineEvents(members ...*Member) (n uint64) {
	for _, m := range members {
		m.Fabric.Call(func() { n += m.Fabric.Engine().Processed() })
	}
	return n
}

// A fabric message costs a member one engine event — the switch's pipeline
// task — where a queued local network cost three (the inject's arrival, the
// task, the relay's arrival). Counts, not timings: on a cluster whose timers
// are all an hour out they repeat exactly.
func TestFabricMessageCostsOneEngineEvent(t *testing.T) {
	members := quietClusterResend(t, 3, time.Hour)
	head, mid, tail := members[0], members[1], members[2]

	// One chain frame off the wire: a forwarded read from a socket that
	// claims the head's address. The tail serves it — one task — and its
	// reply leaves through the head's relay with no event (3 at the parent).
	stranger, err := live.Listen(head.Switch.Addr(), live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	stranger.AddPeerAddrPort(tail.Switch.Addr(), tail.Fabric.AddrPort())
	before, headIn := engineEvents(tail), head.Fabric.FStats().Injected
	if err := stranger.Send(tail.Switch.Addr(), &wire.ReadFwd{Reg: RegStrong, Key: 1, ReqID: 1 << 40, Origin: uint16(head.Switch.Addr())}); err != nil {
		t.Fatal(err)
	}
	// The reply reaches the real head, which asked nothing and drops it.
	waitInjected := func(m *Member, n uint64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); m.Fabric.FStats().Injected < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("member %d took %d messages, want %d", m.Switch.Addr(), m.Fabric.FStats().Injected, n)
			}
		}
	}
	waitInjected(head, headIn+1)
	if got := engineEvents(tail) - before; got != 1 {
		t.Errorf("one injected chain frame ran %d engine events on its member, want 1", got)
	}

	// One send to a remote address: none at all (1 at the parent).
	before, egress := engineEvents(mid), mid.Fabric.FStats().EgressMsgs
	mid.Fabric.Call(func() {
		mid.Switch.Send(ControllerAddr, &wire.Heartbeat{From: uint16(mid.Switch.Addr()), Seq: 1})
	})
	// The egress worker counts the message once it is on the socket.
	for deadline := time.Now().Add(10 * time.Second); mid.Fabric.FStats().EgressMsgs != egress+1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the send raised EgressMsgs by %d, want 1", mid.Fabric.FStats().EgressMsgs-egress)
		}
	}
	if got := engineEvents(mid) - before; got != 0 {
		t.Errorf("one Switch.Send to a remote address ran %d engine events, want 0", got)
	}

	// One committed write from the middle of the chain: the submit's
	// control-plane task and one task for each of its five messages (write
	// to the head, two hops down, the tail's ack to writer and head) — 6
	// cluster-wide, where the parent's three events a message made it 16.
	before, headIn = engineEvents(members...), head.Fabric.FStats().Injected
	committed := make(chan bool, 1)
	mid.Fabric.Post(func() {
		mid.Strong.Write(7, []byte("12345678"), func(ok bool) { committed <- ok })
	})
	select {
	case ok := <-committed:
		if !ok {
			t.Fatal("write failed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("write never committed")
	}
	// The head's copy of the ack may still be in flight: it is the second
	// message the write brings the head.
	waitInjected(head, headIn+2)
	if got := engineEvents(members...) - before; got != 6 {
		t.Errorf("a committed 3-member write ran %d engine events cluster-wide, want 6", got)
	}
}

// TestMemberExportsTheClusterProtocolMetrics: a live member's registry
// carries exactly the chain.* and ewo.* metric names a simulated cluster's
// does — both ask the protocol nodes to register themselves.
func TestMemberExportsTheClusterProtocolMetrics(t *testing.T) {
	protocolNames := func(reg *obs.Registry) map[string]bool {
		names := map[string]bool{}
		for _, s := range reg.Snapshot().Samples {
			if strings.HasPrefix(s.Name, "chain.") || strings.HasPrefix(s.Name, "ewo.") {
				names[s.Name] = true
			}
		}
		return names
	}

	c, err := swishmem.New(swishmem.Config{Switches: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeclareStrong("s", swishmem.StrongOptions{Capacity: 4, ValueWidth: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeclareCounter("c", swishmem.EventualOptions{Capacity: 4}); err != nil {
		t.Fatal(err)
	}
	simNames := protocolNames(c.Metrics())

	m, err := NewMember(MemberConfig{Addr: 1, ControllerEP: netip.MustParseAddrPort("127.0.0.1:9")})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	reg := obs.NewRegistry()
	m.RegisterMetrics(reg, "node=1")
	if live := protocolNames(reg); !reflect.DeepEqual(live, simNames) || len(simNames) != 26 {
		t.Fatalf("live member exports %v\nsimulated cluster exports %d names: %v", live, len(simNames), simNames)
	}
}
