package live

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/sim"
	"swishmem/internal/timesync"
	"swishmem/internal/wire"
)

// collect gathers messages thread-safely.
type collect struct {
	mu   sync.Mutex
	msgs []wire.Msg
	from []netem.Addr
}

func (c *collect) handler(from netem.Addr, msg wire.Msg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, msg)
	c.from = append(c.from, from)
}

func (c *collect) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

// decoded adapts a decoded-message callback to the transport's raw handler
// (the fabric pump decodes on its own goroutine; these tests decode here).
func decoded(h func(from netem.Addr, msg wire.Msg)) RawHandler {
	return func(from netem.Addr, _ netip.AddrPort, payload []byte) {
		if msg, err := wire.Unmarshal(payload); err == nil {
			h(from, msg)
		}
	}
}

// mesh tells every node where every other node's socket lives.
func mesh(nodes []*Node) {
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.AddPeerAddrPort(b.Addr(), b.AddrPort())
			}
		}
	}
}

// multicast sends msg to every group member except n itself.
func multicast(n *Node, group []netem.Addr, msg wire.Msg) {
	for _, to := range group {
		if to != n.Addr() {
			_ = n.Send(to, msg) // datagram semantics: errors equal loss
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

func mkMesh(t *testing.T, n int, opts Options) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := Listen(netem.Addr(i+1), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		nodes[i] = node
	}
	mesh(nodes)
	return nodes
}

func TestSendReceiveRealUDP(t *testing.T) {
	nodes := mkMesh(t, 2, Options{})
	var c collect
	nodes[1].SetRawHandler(decoded(c.handler))
	msg := &wire.Write{Reg: 3, Key: 42, Seq: 7, WriteID: 9, Writer: 1, Epoch: 2, Value: []byte("live!")}
	if err := nodes[0].Send(2, msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.count() == 1 })
	got := c.msgs[0].(*wire.Write)
	if got.Key != 42 || string(got.Value) != "live!" {
		t.Fatalf("got %+v", got)
	}
	if c.from[0] != 1 {
		t.Fatalf("from = %d", c.from[0])
	}
	if nodes[0].Stats().Sent != 1 {
		t.Fatal("sent counter")
	}
}

func TestAllMessageTypesRoundTripOverUDP(t *testing.T) {
	nodes := mkMesh(t, 2, Options{})
	var c collect
	nodes[1].SetRawHandler(decoded(c.handler))
	msgs := []wire.Msg{
		&wire.Write{Reg: 1, Key: 2, Value: []byte("v")},
		&wire.WriteAck{Reg: 1, Key: 2, Seq: 3},
		&wire.ReadFwd{Reg: 1, Key: 2, ReqID: 4, Origin: 1},
		&wire.ReadReply{Reg: 1, Key: 2, ReqID: 4, Value: []byte("r")},
		&wire.EWOUpdate{Reg: 1, From: 1, Entries: []wire.EWOEntry{
			{Key: 5, Stamp: timesync.Stamp{Time: 9, Node: 1}, Value: []byte{1}}}},
		&wire.Heartbeat{From: 1, Seq: 11},
		&wire.ChainConfig{Epoch: 1, Members: []uint16{1, 2}},
		&wire.GroupConfig{Epoch: 1, Members: []uint16{1, 2}},
	}
	for _, m := range msgs {
		if err := nodes[0].Send(2, m); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return c.count() == len(msgs) })
	seen := map[wire.Type]bool{}
	c.mu.Lock()
	for _, m := range c.msgs {
		seen[m.WireType()] = true
	}
	c.mu.Unlock()
	if len(seen) != len(msgs) {
		t.Fatalf("only %d distinct types arrived", len(seen))
	}
}

func TestUnknownPeer(t *testing.T) {
	nodes := mkMesh(t, 1, Options{})
	if err := nodes[0].Send(99, &wire.Heartbeat{}); err == nil {
		t.Fatal("send to unregistered peer succeeded")
	}
}

func TestInjectedLoss(t *testing.T) {
	nodes := mkMesh(t, 2, Options{})
	// Receiver drops ~half.
	lossy, err := Listen(9, Options{LossRate: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer lossy.Close()
	nodes[0].AddPeerAddrPort(9, lossy.AddrPort())
	var c collect
	lossy.SetRawHandler(decoded(c.handler))
	const N = 400
	for i := 0; i < N; i++ {
		if err := nodes[0].Send(9, &wire.Heartbeat{From: 1, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			time.Sleep(time.Millisecond) // avoid socket buffer overrun
		}
	}
	waitFor(t, func() bool {
		s := lossy.Stats()
		return s.Received+s.Dropped >= N*9/10 // most datagrams arrived at the socket
	})
	s := lossy.Stats()
	if s.Dropped == 0 {
		t.Fatal("no injected loss")
	}
	if c.count() == 0 {
		t.Fatal("everything dropped")
	}
	ratio := float64(s.Dropped) / float64(s.Received+s.Dropped)
	if ratio < 0.3 || ratio > 0.7 {
		t.Fatalf("loss ratio %.2f, want ~0.5", ratio)
	}
}

func TestGarbageIgnored(t *testing.T) {
	nodes := mkMesh(t, 2, Options{})
	var c collect
	nodes[1].SetRawHandler(decoded(c.handler))
	// Raw garbage straight to the socket.
	conn := nodes[0].conn
	if _, err := conn.WriteToUDP([]byte{0xff}, nodes[1].UDPAddr()); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.WriteToUDP([]byte{0, 1, 0xee, 0xee}, nodes[1].UDPAddr()); err != nil {
		t.Fatal(err)
	}
	// Then a valid message, which must still get through.
	if err := nodes[0].Send(2, &wire.Heartbeat{From: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.count() == 1 })
	if nodes[1].Stats().DecodeErr == 0 {
		t.Fatal("garbage not counted")
	}
}

func TestCloseIdempotent(t *testing.T) {
	n, err := Listen(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Closing the socket is what unblocks the read loop; no read deadline
	// paces the shutdown.
	start := time.Now()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Close took %v", d)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveChainReplication runs a minimal chain-replication exchange over
// real sockets: writer -> head -> tail -> ack, all via wire messages. It
// demonstrates the protocol messages suffice to coordinate over a real
// datagram network, not just the simulator.
func TestLiveChainReplication(t *testing.T) {
	nodes := mkMesh(t, 3, Options{}) // 1=writer/head, 2=mid, 3=tail
	type entry struct {
		seq uint64
		val []byte
	}
	stores := [3]map[uint64]entry{{}, {}, {}}
	var mu sync.Mutex
	acked := make(chan *wire.WriteAck, 1)

	for i, n := range nodes {
		i, n := i, n
		n.SetRawHandler(decoded(func(from netem.Addr, msg wire.Msg) {
			mu.Lock()
			defer mu.Unlock()
			switch m := msg.(type) {
			case *wire.Write:
				if m.Seq == 0 { // head assigns
					m.Seq = uint64(len(stores[i]) + 1)
				}
				if cur, ok := stores[i][m.Key]; !ok || m.Seq > cur.seq {
					stores[i][m.Key] = entry{m.Seq, m.Value}
				}
				if i < 2 {
					n.Send(netem.Addr(i+2), m) // forward down the chain
				} else {
					n.Send(netem.Addr(m.Writer), &wire.WriteAck{
						Reg: m.Reg, Key: m.Key, Seq: m.Seq, WriteID: m.WriteID, Writer: m.Writer})
				}
			case *wire.WriteAck:
				select {
				case acked <- m:
				default:
				}
			}
		}))
	}
	// Writer (node 1) submits to itself as head.
	w := &wire.Write{Reg: 1, Key: 77, WriteID: 1, Writer: 1, Value: []byte("over-udp")}
	mu.Lock()
	stores[0][77] = entry{1, w.Value}
	mu.Unlock()
	fwd := *w
	fwd.Seq = 1
	if err := nodes[0].Send(2, &fwd); err != nil {
		t.Fatal(err)
	}
	select {
	case ack := <-acked:
		if ack.Key != 77 {
			t.Fatalf("ack = %+v", ack)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no ack over live transport")
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range stores {
		if string(stores[i][77].val) != "over-udp" {
			t.Fatalf("replica %d missing value", i+1)
		}
	}
}

// TestLiveEWOGossip runs the EWO counter merge discipline over real UDP
// with injected loss: three nodes increment per-node slots, multicast
// announcements, and periodically gossip full state until all converge to
// the exact total — the §6.2 protocol carried by real datagrams.
func TestLiveEWOGossip(t *testing.T) {
	const n = 3
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := Listen(netem.Addr(i+1), Options{LossRate: 0.3, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		nodes[i] = node
	}
	mesh(nodes)
	group := []netem.Addr{1, 2, 3}

	var mu sync.Mutex
	slots := make([]map[uint16]uint64, n) // per node: owner -> value
	for i := range slots {
		slots[i] = make(map[uint16]uint64)
	}
	for i, node := range nodes {
		i, node := i, node
		node.SetRawHandler(decoded(func(from netem.Addr, msg wire.Msg) {
			u, ok := msg.(*wire.EWOUpdate)
			if !ok {
				return
			}
			mu.Lock()
			for _, e := range u.Entries {
				owner := uint16(e.Stamp.Node)
				if v := uint64(e.Stamp.Time); v > slots[i][owner] {
					slots[i][owner] = v
				}
			}
			mu.Unlock()
		}))
	}
	// Each node increments its slot 50 times, announcing each (lossy).
	for step := uint64(1); step <= 50; step++ {
		for i, node := range nodes {
			self := uint16(i + 1)
			mu.Lock()
			slots[i][self] = step
			mu.Unlock()
			multicast(node, group, &wire.EWOUpdate{Reg: 1, From: self, Entries: []wire.EWOEntry{{
				Key: 1, Stamp: timesync.Stamp{Time: sim.Time(step), Node: timesync.NodeID(self)}}}})
		}
	}
	// Gossip rounds: each node announces its full known state.
	sum := func(i int) uint64 {
		mu.Lock()
		defer mu.Unlock()
		var s uint64
		for _, v := range slots[i] {
			s += v
		}
		return s
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for i := range nodes {
			if sum(i) != 150 {
				done = false
			}
		}
		if done {
			return
		}
		for i, node := range nodes {
			mu.Lock()
			var entries []wire.EWOEntry
			for owner, v := range slots[i] {
				entries = append(entries, wire.EWOEntry{
					Key: 1, Stamp: timesync.Stamp{Time: sim.Time(v), Node: timesync.NodeID(owner)}})
			}
			mu.Unlock()
			multicast(node, group, &wire.EWOUpdate{Reg: 1, From: uint16(i + 1), Sync: true, Entries: entries})
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no convergence over lossy UDP: sums %d %d %d", sum(0), sum(1), sum(2))
}
