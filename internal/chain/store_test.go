package chain

import (
	"bytes"
	"testing"

	"swishmem/internal/netem"
	"swishmem/internal/wire"
)

// A write carrying a value wider than ValueWidth from another switch — a
// configuration mismatch or a forged frame — is refused at every member, not
// truncated and applied; the in-order discipline's floor moves past it, so
// the next write to the group commits.
func TestRemoteOverWidthWriteIsRefused(t *testing.T) {
	for _, rep := range []Replication{ChainReplication, RetransmitReplication} {
		t.Run(rep.String(), func(t *testing.T) {
			cfg := defCfg()
			cfg.Replication = rep
			r := newRig(t, 1, 3, cfg, netem.LinkProfile{Latency: 10_000})
			wide := bytes.Repeat([]byte{7}, cfg.ValueWidth+1)
			r.nodes[0].Handle(9, &wire.Write{Reg: 1, Key: 5, WriteID: 1, Writer: 9, Epoch: r.epoch, Value: wide})
			r.eng.Run()
			for i, n := range r.nodes {
				if v, ok := n.Get(5); ok {
					t.Fatalf("member %d applied an over-width write: %x", i+1, v)
				}
				if n.Stats.StaleDropped.Value() != 1 || n.Stats.Applied.Value() != 0 {
					t.Fatalf("member %d: %d dropped, %d applied; want 1, 0", i+1, n.Stats.StaleDropped.Value(), n.Stats.Applied.Value())
				}
			}
			committed := false
			r.nodes[1].Write(5, val("ok"), func(ok bool) { committed = ok })
			r.eng.Run()
			if v, _ := r.nodes[2].Get(5); !committed || string(v) != "ok" {
				t.Fatalf("next write: committed %v, tail holds %q", committed, v)
			}
		})
	}
}

// A snapshot write carrying an over-width value is refused at the joiner.
func TestSnapshotOverWidthWriteIsRefused(t *testing.T) {
	r := newRig(t, 1, 1, defCfg(), netem.LinkProfile{})
	n := r.nodes[0]
	n.BeginJoin()
	wide := bytes.Repeat([]byte{7}, defCfg().ValueWidth+1)
	n.Handle(9, &wire.Write{Reg: 1, Key: 5, Seq: 3, WriteID: snapIDBit, Writer: 9, Epoch: r.epoch, Snapshot: true, Value: wide})
	if _, ok := n.Get(5); ok || n.Stats.StaleDropped.Value() != 1 {
		t.Fatalf("over-width snapshot write applied (dropped %d)", n.Stats.StaleDropped.Value())
	}
}

// A local write wider than ValueWidth is truncated at submit, as an EWO
// register's is, and commits.
func TestWriteTruncatesToValueWidth(t *testing.T) {
	r := newRig(t, 1, 3, defCfg(), netem.LinkProfile{Latency: 10_000})
	wide := []byte("0123456789abcdefXYZ")
	committed := false
	r.nodes[1].Write(5, wide, func(ok bool) { committed = ok })
	r.eng.Run()
	for i, n := range r.nodes {
		if v, _ := n.Get(5); !committed || string(v) != "0123456789abcdef" {
			t.Fatalf("member %d holds %q (committed %v), want the first 16 bytes", i+1, v, committed)
		}
	}
}

// A stored value is the register's own: the writer's buffer, reused after
// Write returns, does not reach it, and a later write of another key does
// not disturb a view Get returned.
func TestStoreValueIsolation(t *testing.T) {
	r := newRig(t, 1, 3, defCfg(), netem.LinkProfile{Latency: 10_000})
	src := val("abc")
	r.nodes[1].Write(7, src, nil)
	src[0] = 'z'
	r.eng.Run()
	view, _ := r.nodes[2].Get(7)
	r.nodes[1].Write(8, val("def"), nil)
	r.eng.Run()
	for i, n := range r.nodes {
		a, _ := n.Get(7)
		b, _ := n.Get(8)
		if string(a) != "abc" || string(b) != "def" {
			t.Fatalf("member %d holds %q, %q; want abc, def", i+1, a, b)
		}
	}
	if string(view) != "abc" {
		t.Fatalf("view of key 7 reads %q after a write of key 8", view)
	}
}

// Applying a write of a key the register has never held copies the value
// into a new row's cell: no allocation per key (the table's storage grows by
// doubling, under one allocation per key in aggregate).
func TestChainApplyNewKeyAllocBudget(t *testing.T) {
	cfg := defCfg()
	cfg.Capacity = 4096
	n := newRig(t, 1, 1, cfg, netem.LinkProfile{}).nodes[0]
	w := &wire.Write{Reg: 1, Seq: 1, Value: val("0123456789abcdef")}
	refused := 0
	allocs := testing.AllocsPerRun(1000, func() {
		w.Key++
		if !n.apply(w) {
			refused++
		}
	})
	if refused != 0 || n.store.Len() != 1001 {
		t.Fatalf("%d of 1001 fresh keys refused, %d rows", refused, n.store.Len())
	}
	if allocs != 0 {
		t.Fatalf("apply of a new key allocates %v per op, want 0", allocs)
	}
}
