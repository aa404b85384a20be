package core

import (
	"testing"
	"time"

	"swishmem/internal/chain"
	"swishmem/internal/chain/ctrlplane"
	"swishmem/internal/ewo"
	"swishmem/internal/netem"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/wire"
)

type rig struct {
	eng  *sim.Engine
	net  *netem.Network
	ins  []*Instance
	regS []*StrongRegister
	regC []*CounterRegister
	regL []*EventualRegister
}

func newRig(t testing.TB, seed int64, n int) *rig {
	t.Helper()
	eng := sim.NewEngine(seed)
	nw := netem.New(eng, netem.LinkProfile{Latency: 10_000})
	r := &rig{eng: eng, net: nw}
	var members []uint16
	for i := 0; i < n; i++ {
		sw := pisa.New(eng, nw, pisa.Config{Addr: netem.Addr(i + 1), PipelinePPS: 1e9})
		in := NewInstance(sw)
		s, err := in.NewStrongRegister(Strong, chain.Config{Reg: 1, Capacity: 256, ValueWidth: 16})
		if err != nil {
			t.Fatal(err)
		}
		c, err := in.NewCounterRegister(ewo.Config{Reg: 2, Capacity: 256})
		if err != nil {
			t.Fatal(err)
		}
		l, err := in.NewEventualRegister(ewo.Config{Reg: 3, Capacity: 256, ValueWidth: 16})
		if err != nil {
			t.Fatal(err)
		}
		r.ins = append(r.ins, in)
		r.regS = append(r.regS, s)
		r.regC = append(r.regC, c)
		r.regL = append(r.regL, l)
		members = append(members, uint16(i+1))
	}
	cc := wire.ChainConfig{Epoch: 1, Members: members}
	gc := wire.GroupConfig{Epoch: 1, Members: members}
	for _, in := range r.ins {
		in.EachChain(func(_ uint16, cn *chain.Node) { cn.SetChain(cc) })
		in.EachEWO(func(_ uint16, en *ewo.Node) {
			if err := en.SetGroup(gc); err != nil {
				t.Fatal(err)
			}
		})
	}
	return r
}

func TestMultiRegisterRouting(t *testing.T) {
	// Three register types on the same switches, messages demultiplexed by
	// register ID, all protocols working concurrently.
	r := newRig(t, 1, 3)
	committed := false
	r.regS[0].Write(10, []byte("strong"), func(ok bool) { committed = ok })
	r.regC[1].Add(10, 5)
	r.regL[2].Write(10, []byte("lww"))
	r.eng.RunFor(10 * time.Millisecond)

	if !committed {
		t.Fatal("SRO write not committed")
	}
	got := ""
	r.regS[2].Read(10, func(v []byte, ok bool) { got = string(v) })
	if got != "strong" {
		t.Fatalf("SRO read = %q", got)
	}
	for i := 0; i < 3; i++ {
		if r.regC[i].Sum(10) != 5 {
			t.Fatalf("counter at %d = %d", i, r.regC[i].Sum(10))
		}
		if v, ok := r.regL[i].Read(10); !ok || string(v) != "lww" {
			t.Fatalf("lww at %d = %q %v", i, v, ok)
		}
	}
}

func TestDuplicateRegisterIDRejected(t *testing.T) {
	r := newRig(t, 1, 1)
	in := r.ins[0]
	if _, err := in.NewStrongRegister(Strong, chain.Config{Reg: 1, Capacity: 8, ValueWidth: 8}); err == nil {
		t.Fatal("duplicate chain register accepted")
	}
	if _, err := in.NewCounterRegister(ewo.Config{Reg: 2, Capacity: 8}); err == nil {
		t.Fatal("duplicate ewo register accepted")
	}
	if _, err := in.NewEventualRegister(ewo.Config{Reg: 3, Capacity: 8, ValueWidth: 8}); err == nil {
		t.Fatal("duplicate lww register accepted")
	}
}

func TestEventualWriteClassRejectsChain(t *testing.T) {
	r := newRig(t, 1, 1)
	if _, err := r.ins[0].NewStrongRegister(EventualWrite, chain.Config{Reg: 9, Capacity: 8, ValueWidth: 8}); err == nil {
		t.Fatal("EWO class accepted by chain constructor")
	}
}

func TestEROClass(t *testing.T) {
	r := newRig(t, 1, 2)
	reg, err := r.ins[0].NewStrongRegister(EventualRead, chain.Config{Reg: 7, Capacity: 8, ValueWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Node().Config().Mode != chain.ERO {
		t.Fatal("ERO class did not select ERO mode")
	}
}

func TestConfigBroadcastViaWire(t *testing.T) {
	// ChainConfig/GroupConfig arriving as wire messages reach all registers.
	r := newRig(t, 1, 2)
	in := r.ins[0]
	in.route(99, &wire.ChainConfig{Epoch: 9, Members: []uint16{1, 2}})
	in.route(99, &wire.GroupConfig{Epoch: 9, Members: []uint16{1}})
	in.EachChain(func(_ uint16, cn *chain.Node) {
		if cn.Chain().Epoch != 9 {
			t.Fatal("chain config not applied")
		}
	})
	in.EachEWO(func(_ uint16, en *ewo.Node) {
		if len(en.Group()) != 1 {
			t.Fatal("group config not applied")
		}
	})
}

func TestOversizedGroupConfigIsCounted(t *testing.T) {
	// A GroupConfig with more members than MaxGroup (default 8) cannot be
	// installed; the router has nobody to return the error to, so each
	// register counts the refusal and keeps its group.
	r := newRig(t, 1, 2)
	in := r.ins[0]
	big := make([]uint16, 9)
	for i := range big {
		big[i] = uint16(i + 1)
	}
	in.route(99, &wire.GroupConfig{Epoch: 9, Members: big})
	in.EachEWO(func(reg uint16, en *ewo.Node) {
		if len(en.Group()) != 2 {
			t.Fatalf("register %d: group is %v after a rejected config", reg, en.Group())
		}
		if got := en.Stats.GroupsRejected.Value(); got != 1 {
			t.Fatalf("register %d: GroupsRejected = %d, want 1", reg, got)
		}
	})
}

func TestUnknownRegisterMessagesIgnored(t *testing.T) {
	r := newRig(t, 1, 1)
	// Must not panic or misroute.
	r.ins[0].route(2, &wire.Write{Reg: 99})
	r.ins[0].route(2, &wire.EWOUpdate{Reg: 99})
	r.ins[0].routeCtrl(2, &wire.EWOUpdate{Reg: 99})
}

func TestBaselineCounter(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netem.New(eng, netem.LinkProfile{Latency: 10_000})
	var ins []*Instance
	var regs []*BaselineCounter
	var members []uint16
	for i := 0; i < 2; i++ {
		sw := pisa.New(eng, nw, pisa.Config{Addr: netem.Addr(i + 1)})
		in := NewInstance(sw)
		bc, err := in.NewBaselineCounter(ctrlplane.Config{Reg: 4, Capacity: 64})
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
		regs = append(regs, bc)
		members = append(members, uint16(i+1))
	}
	gc := wire.GroupConfig{Epoch: 1, Members: members}
	for _, r := range regs {
		if err := r.Node().SetGroup(gc); err != nil {
			t.Fatal(err)
		}
	}
	regs[0].Add(1, 7)
	if regs[0].Backlog() == 0 {
		t.Fatal("no backlog recorded")
	}
	eng.Run()
	if regs[1].Sum(1) != 7 {
		t.Fatalf("baseline replica = %d", regs[1].Sum(1))
	}
	if _, err := ins[0].NewBaselineCounter(ctrlplane.Config{Reg: 4, Capacity: 8}); err == nil {
		t.Fatal("duplicate baseline register accepted")
	}
}

func TestMemoryTotal(t *testing.T) {
	r := newRig(t, 1, 1)
	if r.ins[0].MemoryTotal() == 0 {
		t.Fatal("memory accounting empty")
	}
	sum := r.regS[0].MemoryBytes() + r.regC[0].MemoryBytes() + r.regL[0].MemoryBytes()
	if r.ins[0].MemoryTotal() != sum {
		t.Fatalf("MemoryTotal %d != register sum %d", r.ins[0].MemoryTotal(), sum)
	}
}

func TestConsistencyStrings(t *testing.T) {
	if Strong.String() != "SRO" || EventualRead.String() != "ERO" || EventualWrite.String() != "EWO" {
		t.Fatal("consistency strings")
	}
}

func TestHandleAccessors(t *testing.T) {
	r := newRig(t, 1, 1)
	in := r.ins[0]
	if h, err := in.StrongHandle(1); err != nil || h == nil {
		t.Fatalf("StrongHandle: %v", err)
	}
	if _, err := in.StrongHandle(99); err == nil {
		t.Fatal("unknown chain handle resolved")
	}
	if h, err := in.CounterHandle(2); err != nil || h == nil {
		t.Fatalf("CounterHandle: %v", err)
	}
	if _, err := in.CounterHandle(99); err == nil {
		t.Fatal("unknown counter handle resolved")
	}
	if _, err := in.CounterHandle(3); err == nil {
		t.Fatal("LWW register resolved as counter")
	}
	if h, err := in.EventualHandle(3); err != nil || h == nil {
		t.Fatalf("EventualHandle: %v", err)
	}
	if _, err := in.EventualHandle(2); err == nil {
		t.Fatal("counter resolved as LWW")
	}
	if _, err := in.EventualHandle(99); err == nil {
		t.Fatal("unknown LWW handle resolved")
	}
}

func TestHandlesShareUnderlyingNode(t *testing.T) {
	r := newRig(t, 1, 2)
	h, err := r.ins[0].CounterHandle(2)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(9, 4)
	if r.regC[0].Sum(9) != 4 {
		t.Fatal("handle does not share state with original")
	}
}

func TestCounterRegisterSubPanicsOnGCounter(t *testing.T) {
	r := newRig(t, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Sub on G-counter did not panic")
		}
	}()
	r.regC[0].Sub(1, 1)
}

func TestBaselineCounterErrors(t *testing.T) {
	eng := sim.NewEngine(2)
	nw := netem.New(eng, netem.LinkProfile{})
	in := NewInstance(pisa.New(eng, nw, pisa.Config{Addr: 1, MemoryBytes: 64}))
	if _, err := in.NewBaselineCounter(ctrlplane.Config{Reg: 1, Capacity: 1 << 20}); err == nil {
		t.Fatal("over-budget baseline accepted")
	}
}

func TestRouteCtrlFallsBackToDataHandlers(t *testing.T) {
	// Control-plane-delivered chain messages still reach chain nodes.
	r := newRig(t, 1, 2)
	r.ins[0].routeCtrl(2, &wire.ChainConfig{Epoch: 9, Members: []uint16{1, 2}})
	r.ins[0].EachChain(func(_ uint16, cn *chain.Node) {
		if cn.Chain().Epoch != 9 {
			t.Fatal("ctrl-delivered chain config not applied")
		}
	})
}
