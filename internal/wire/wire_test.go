package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"swishmem/internal/sim"
	"swishmem/internal/timesync"
)

// roundTrip marshals m, checks Size against the actual encoding length,
// unmarshals, and returns the decoded message.
func roundTrip(t *testing.T, m Msg) Msg {
	t.Helper()
	raw := Marshal(m)
	if len(raw) != m.Size() {
		t.Fatalf("%s: Size()=%d but encoding is %d bytes", m.WireType(), m.Size(), len(raw))
	}
	got, err := Unmarshal(raw)
	if err != nil {
		t.Fatalf("%s: unmarshal: %v", m.WireType(), err)
	}
	return got
}

func TestWriteRoundTrip(t *testing.T) {
	w := &Write{Reg: 7, Key: 0xdeadbeef, Seq: 42, WriteID: 99, Writer: 3, Epoch: 5, Snapshot: true, Value: []byte("value!")}
	got := roundTrip(t, w).(*Write)
	if !reflect.DeepEqual(w, got) {
		t.Fatalf("got %+v, want %+v", got, w)
	}
}

func TestWriteEmptyValue(t *testing.T) {
	w := &Write{Reg: 1, Key: 2}
	got := roundTrip(t, w).(*Write)
	if len(got.Value) != 0 {
		t.Fatalf("value = %v", got.Value)
	}
}

func TestWriteAckRoundTrip(t *testing.T) {
	a := &WriteAck{Reg: 1, Key: 2, Seq: 3, WriteID: 4, Writer: 5, Epoch: 6}
	got := roundTrip(t, a).(*WriteAck)
	if !reflect.DeepEqual(got, a) {
		t.Fatalf("got %+v", got)
	}
}

func TestReadFwdReplyRoundTrip(t *testing.T) {
	f := &ReadFwd{Reg: 9, Key: 1 << 60, ReqID: 77, Origin: 4}
	if got := roundTrip(t, f).(*ReadFwd); !reflect.DeepEqual(got, f) {
		t.Fatalf("fwd got %+v", got)
	}
	r := &ReadReply{Reg: 9, Key: 1 << 60, ReqID: 77, Value: []byte{1, 2, 3}}
	got := roundTrip(t, r).(*ReadReply)
	if got.Reg != r.Reg || got.Key != r.Key || got.ReqID != r.ReqID || !bytes.Equal(got.Value, r.Value) {
		t.Fatalf("reply got %+v", got)
	}
}

func TestChainNackCursorRoundTrip(t *testing.T) {
	nk := &ChainNack{Reg: 9, Epoch: 3, Group: 7, From: 100, To: 115}
	if got := roundTrip(t, nk).(*ChainNack); !reflect.DeepEqual(got, nk) {
		t.Fatalf("nack got %+v", got)
	}
	for _, skip := range []bool{false, true} {
		c := &ChainCursor{Reg: 9, Epoch: 3, Group: 7, Seq: 42, Skip: skip}
		if got := roundTrip(t, c).(*ChainCursor); !reflect.DeepEqual(got, c) {
			t.Fatalf("cursor got %+v", got)
		}
	}
}

func TestEWOUpdateRoundTrip(t *testing.T) {
	u := &EWOUpdate{
		Reg: 3, From: 2, Slot: 1, Sync: true,
		Entries: []EWOEntry{
			{Key: 10, Stamp: timesync.Stamp{Time: 1000, Node: 2}, Value: []byte{0xaa}},
			{Key: 11, Stamp: timesync.Stamp{Time: 1001, Node: 2}, Value: []byte{0xbb, 0xcc}},
			{Key: 12, Stamp: timesync.Stamp{Time: 999, Node: 1}},
		},
	}
	got := roundTrip(t, u).(*EWOUpdate)
	if got.Reg != 3 || got.From != 2 || got.Slot != 1 || !got.Sync {
		t.Fatalf("header: %+v", got)
	}
	if len(got.Entries) != 3 {
		t.Fatalf("entries: %d", len(got.Entries))
	}
	for i := range u.Entries {
		if got.Entries[i].Key != u.Entries[i].Key || got.Entries[i].Stamp != u.Entries[i].Stamp {
			t.Fatalf("entry %d: %+v vs %+v", i, got.Entries[i], u.Entries[i])
		}
		if !bytes.Equal(got.Entries[i].Value, u.Entries[i].Value) {
			t.Fatalf("entry %d value", i)
		}
	}
}

func TestEWOUpdateEmpty(t *testing.T) {
	u := &EWOUpdate{Reg: 1, From: 2}
	got := roundTrip(t, u).(*EWOUpdate)
	if len(got.Entries) != 0 || got.Sync {
		t.Fatalf("got %+v", got)
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	h := &Heartbeat{From: 12, Seq: 1 << 40}
	if got := roundTrip(t, h).(*Heartbeat); got.From != h.From || got.Seq != h.Seq {
		t.Fatalf("got %+v", got)
	}
}

func TestChainConfigRoundTrip(t *testing.T) {
	c := &ChainConfig{Epoch: 4, Members: []uint16{3, 1, 4, 1, 5}, Joining: 9}
	got := roundTrip(t, c).(*ChainConfig)
	if got.Epoch != 4 || got.Joining != 9 || !reflect.DeepEqual(got.Members, c.Members) {
		t.Fatalf("got %+v", got)
	}
	// Empty chain is legal on the wire.
	e := &ChainConfig{Epoch: 1}
	got = roundTrip(t, e).(*ChainConfig)
	if len(got.Members) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestGroupConfigRoundTrip(t *testing.T) {
	g := &GroupConfig{Epoch: 2, Members: []uint16{10, 20, 30}}
	got := roundTrip(t, g).(*GroupConfig)
	if got.Epoch != 2 || !reflect.DeepEqual(got.Members, g.Members) {
		t.Fatalf("got %+v", got)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := &Hello{From: 42, Gen: 1 << 30}
	if got := roundTrip(t, h).(*Hello); *got != *h {
		t.Fatalf("got %+v", got)
	}
}

func TestPeerListRoundTrip(t *testing.T) {
	pl := &PeerList{Epoch: 7, Peers: []PeerEntry{
		{Addr: 1, IP: [4]byte{127, 0, 0, 1}, Port: 4001},
		{Addr: 2, IP: [4]byte{10, 0, 0, 2}, Port: 65535},
		{Addr: 0xfffe, IP: [4]byte{192, 168, 1, 1}, Port: 1},
	}}
	got := roundTrip(t, pl).(*PeerList)
	if got.Epoch != 7 || !reflect.DeepEqual(got.Peers, pl.Peers) {
		t.Fatalf("got %+v, want %+v", got, pl)
	}
	// An empty directory is legal on the wire.
	e := &PeerList{Epoch: 1}
	got = roundTrip(t, e).(*PeerList)
	if len(got.Peers) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("empty: want error")
	}
	if _, err := Unmarshal([]byte{0xff}); err == nil {
		t.Error("unknown type: want error")
	}
	// Truncations of every type.
	msgs := []Msg{
		&Write{Value: []byte("abc")},
		&WriteAck{},
		&ReadFwd{},
		&ReadReply{Value: []byte("abc")},
		&EWOUpdate{Entries: []EWOEntry{{Key: 1, Value: []byte("xy")}}},
		&Heartbeat{},
		&ChainConfig{Members: []uint16{1, 2}},
		&GroupConfig{Members: []uint16{1}},
		&ChainNack{Reg: 1, From: 2, To: 5},
		&ChainCursor{Reg: 1, Seq: 9},
	}
	for _, m := range msgs {
		raw := Marshal(m)
		for cut := 1; cut < len(raw); cut++ {
			if _, err := Unmarshal(raw[:cut]); err == nil {
				t.Errorf("%s truncated to %d bytes: want error", m.WireType(), cut)
			}
		}
	}
}

func TestOversizedValueRejected(t *testing.T) {
	w := &Write{Value: make([]byte, maxValueLen+1)}
	raw := Marshal(w)
	if _, err := Unmarshal(raw); err == nil {
		t.Fatal("oversized value accepted")
	}
}

func TestTypeStrings(t *testing.T) {
	for ty := TWrite; ty <= TGroupConfig; ty++ {
		if s := ty.String(); s == "" || s[0] == 'T' && s[1] == 'y' {
			t.Errorf("type %d has bad string %q", ty, s)
		}
	}
	if Type(200).String() != "Type(200)" {
		t.Error("unknown type string")
	}
}

// Property: Write round-trips for arbitrary field values.
func TestWriteProperty(t *testing.T) {
	f := func(reg uint16, key, seq, wid uint64, writer uint16, epoch uint32, snap bool, val []byte) bool {
		if len(val) > maxValueLen {
			val = val[:maxValueLen]
		}
		w := &Write{Reg: reg, Key: key, Seq: seq, WriteID: wid, Writer: writer, Epoch: epoch, Snapshot: snap, Value: val}
		got, err := Unmarshal(Marshal(w))
		if err != nil {
			return false
		}
		g := got.(*Write)
		return g.Reg == reg && g.Key == key && g.Seq == seq && g.WriteID == wid &&
			g.Writer == writer && g.Epoch == epoch && g.Snapshot == snap && bytes.Equal(g.Value, val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// Property: EWOUpdate round-trips for arbitrary entry lists.
func TestEWOUpdateProperty(t *testing.T) {
	f := func(reg, from, slot uint16, sync bool, keys []uint64, times []int64, vals [][]byte) bool {
		n := len(keys)
		if len(times) < n {
			n = len(times)
		}
		if len(vals) < n {
			n = len(vals)
		}
		if n > 100 {
			n = 100
		}
		u := &EWOUpdate{Reg: reg, From: from, Slot: slot, Sync: sync}
		for i := 0; i < n; i++ {
			v := vals[i]
			if len(v) > maxValueLen {
				v = v[:maxValueLen]
			}
			u.Entries = append(u.Entries, EWOEntry{
				Key:   keys[i],
				Stamp: timesync.Stamp{Time: sim.Time(times[i]), Node: timesync.NodeID(from)},
				Value: v,
			})
		}
		got, err := Unmarshal(Marshal(u))
		if err != nil {
			return false
		}
		g := got.(*EWOUpdate)
		if g.Reg != reg || g.From != from || g.Slot != slot || g.Sync != sync || len(g.Entries) != n {
			return false
		}
		for i := range g.Entries {
			if g.Entries[i].Key != u.Entries[i].Key || g.Entries[i].Stamp != u.Entries[i].Stamp ||
				!bytes.Equal(g.Entries[i].Value, u.Entries[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeMatchesForAll(t *testing.T) {
	msgs := []Msg{
		&Write{Reg: 1, Key: 2, Value: []byte("0123456789")},
		&WriteAck{Reg: 1},
		&ReadFwd{Key: 5},
		&ReadReply{Value: []byte("xyz")},
		&EWOUpdate{Entries: []EWOEntry{{Value: []byte("ab")}, {Value: nil}}},
		&Heartbeat{Seq: 1},
		&ChainConfig{Members: []uint16{1, 2, 3}},
		&GroupConfig{Members: []uint16{1, 2, 3, 4}},
		&ChainNack{Reg: 1, Epoch: 2, Group: 3, From: 4, To: 9},
		&ChainCursor{Reg: 1, Epoch: 2, Group: 3, Seq: 17, Skip: true},
	}
	for _, m := range msgs {
		if got := len(Marshal(m)); got != m.Size() {
			t.Errorf("%s: Size()=%d, encoding=%d", m.WireType(), m.Size(), got)
		}
	}
}

// TestEWOUpdateSizeDefinition pins the exported size definitions the EWO
// protocol packs against (its per-packet byte bound, its sync repacking) to
// the encoding itself: overhead + Σ entry sizes is the marshalled length.
func TestEWOUpdateSizeDefinition(t *testing.T) {
	for _, entries := range []int{0, 1, 64} {
		for _, width := range []int{0, 1, 8} {
			u := &EWOUpdate{Reg: 1, From: 2, Entries: make([]EWOEntry, entries)}
			want := EWOUpdateOverhead
			for i := range u.Entries {
				u.Entries[i] = EWOEntry{Key: uint64(i), Stamp: timesync.Stamp{Time: sim.Time(i), Node: 2}, Value: make([]byte, width)}
				want += u.Entries[i].Size()
			}
			if got := len(u.Marshal(nil)); got != want || u.Size() != want {
				t.Errorf("%d entries of %d-byte values: overhead+entries = %d, Size() = %d, Marshal = %d bytes",
					entries, width, want, u.Size(), got)
			}
		}
	}
}

func BenchmarkMarshalWrite(b *testing.B) {
	w := &Write{Reg: 1, Key: 2, Seq: 3, WriteID: 4, Writer: 5, Epoch: 6, Value: make([]byte, 16)}
	buf := make([]byte, 0, w.Size())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = w.Marshal(buf[:0])
	}
}

func BenchmarkUnmarshalWrite(b *testing.B) {
	raw := Marshal(&Write{Reg: 1, Key: 2, Seq: 3, WriteID: 4, Writer: 5, Epoch: 6, Value: make([]byte, 16)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(raw); err != nil {
			b.Fatal(err)
		}
	}
}
