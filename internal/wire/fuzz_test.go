package wire

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"swishmem/internal/netem"
)

// TestUnmarshalNeverPanics feeds Unmarshal random byte soup — valid type
// tags with corrupted bodies, and pure noise — asserting it always returns
// an error or a message, never panics. The data plane will feed the decoder
// whatever arrives on the wire; it must be total.
func TestUnmarshalNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Unmarshal panicked: %v", r)
		}
	}()
	for i := 0; i < 50000; i++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		rng.Read(buf)
		if n > 0 && i%2 == 0 {
			// Half the corpus has a valid type tag to reach deep decoders.
			buf[0] = byte(rng.Intn(int(TChainCursor)) + 1)
		}
		msg, err := Unmarshal(buf)
		if err == nil && msg == nil {
			t.Fatal("nil message with nil error")
		}
	}
}

// TestBitFlippedMessagesDecodeOrError flips bits in valid encodings: every
// outcome must be a clean decode or an error (the flipped message may be
// valid — that is the datagram trust model — but never a crash).
func TestBitFlippedMessagesDecodeOrError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	msgs := []Msg{
		&Write{Reg: 1, Key: 2, Seq: 3, WriteID: 4, Writer: 5, Epoch: 6, Value: []byte("abcdef")},
		&EWOUpdate{Reg: 1, From: 2, Entries: []EWOEntry{{Key: 1, Value: []byte("xy")}, {Key: 2}}},
		&ChainConfig{Epoch: 3, Members: []uint16{1, 2, 3}},
		&PeerList{Epoch: 1, Peers: []PeerEntry{{Addr: 1, IP: [4]byte{127, 0, 0, 1}, Port: 9000}}},
	}
	for _, m := range msgs {
		base := Marshal(m)
		for trial := 0; trial < 2000; trial++ {
			buf := append([]byte(nil), base...)
			flips := rng.Intn(4) + 1
			for f := 0; f < flips; f++ {
				buf[rng.Intn(len(buf))] ^= 1 << rng.Intn(8)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic on bit-flipped %s: %v", m.WireType(), r)
					}
				}()
				Unmarshal(buf)
			}()
		}
	}
}

// exemplarMsgs covers every wire type with representative non-zero fields —
// the roots the fuzz corpus grows from.
func exemplarMsgs() []Msg {
	return []Msg{
		&Write{Reg: 1, Key: 2, Seq: 3, WriteID: 4, Writer: 5, Epoch: 6, Snapshot: true, Value: []byte("abcdef")},
		&WriteAck{Reg: 1, Key: 2, Seq: 3, WriteID: 4, Writer: 5, Epoch: 6},
		&ReadFwd{Reg: 1, Key: 2, ReqID: 3, Origin: 4},
		&ReadReply{Reg: 1, Key: 2, ReqID: 3, Value: []byte("reply")},
		&EWOUpdate{Reg: 1, From: 2, Slot: 1, Sync: true,
			Entries: []EWOEntry{{Key: 1, Value: []byte("xy")}, {Key: 2}}},
		&Heartbeat{From: 3, Seq: 99},
		&ChainConfig{Epoch: 3, Members: []uint16{1, 2, 3}, Joining: 4},
		&GroupConfig{Epoch: 2, Members: []uint16{1, 2, 3, 4}},
		&Hello{From: 7, Gen: 2},
		&PeerList{Epoch: 1, Peers: []PeerEntry{{Addr: 1, IP: [4]byte{127, 0, 0, 1}, Port: 9000}}},
		&Batch{Msgs: []Msg{
			&Heartbeat{From: 1, Seq: 1},
			&Write{Reg: 1, Key: 9, Value: []byte("batched")},
			&EWOUpdate{Reg: 2, From: 1, Entries: []EWOEntry{{Key: 3, Value: []byte("z")}}},
		}},
		&ChainNack{Reg: 1, Epoch: 2, Group: 3, From: 4, To: 9},
		&ChainCursor{Reg: 1, Epoch: 2, Group: 3, Seq: 17, Skip: true},
	}
}

// ewoCountBomb is a 10-byte EWOUpdate frame whose entry count claims 65535
// entries: header only, no entry bytes behind it.
var ewoCountBomb = []byte{byte(TEWOUpdate), 0, 1, 0, 2, 0, 0, 0, 0xff, 0xff}

// TestEWOUpdateCountBombBounded: the entry count comes straight off the wire
// (the sim corruption checker flips exactly such bits), so both decoders
// must refuse a count the body cannot hold before sizing anything by it.
func TestEWOUpdateCountBombBounded(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Unmarshal(ewoCountBomb)
	s := NewViewSet(nil)
	msgs, errs := s.Decode(ewoCountBomb)
	runtime.ReadMemStats(&after)
	if err == nil || errs != 1 || len(msgs) != 0 {
		t.Fatalf("count bomb accepted: err=%v, view errs=%d msgs=%d", err, errs, len(msgs))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("decoding a 10-byte frame allocated %d bytes", got)
	}
}

// FuzzDecode is the native fuzz face of the decoder totality property: for
// any input, Unmarshal returns a message or an error — never a panic, never
// (nil, nil) — and anything it accepts survives a re-marshal/re-decode
// round trip. The checked-in seed corpus (testdata/fuzz/FuzzDecode) holds
// clean encodings of every type plus bit-flipped and truncated variants
// harvested from the corruption injector's FlipBits primitive; regenerate
// with -wire.gencorpus.
func FuzzDecode(f *testing.F) {
	for _, m := range exemplarMsgs() {
		f.Add(Marshal(m))
	}
	f.Add(ewoCountBomb)
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Unmarshal(data)
		if err != nil {
			return
		}
		if msg == nil {
			t.Fatal("nil message with nil error")
		}
		// Accepted input must round-trip: its re-encoding decodes cleanly.
		if _, err := Unmarshal(Marshal(msg)); err != nil {
			t.Fatalf("re-decode of accepted %v failed: %v", msg.WireType(), err)
		}
	})
}

// FuzzWalkBatch fuzzes the batch walker's all-or-nothing contract: on any
// input it either rejects before the first callback or walks exactly the
// header count of in-bounds frames with no trailing garbage.
func FuzzWalkBatch(f *testing.F) {
	for _, m := range exemplarMsgs() {
		if b, ok := m.(*Batch); ok {
			f.Add(Marshal(b)[1:]) // body = encoding minus the TBatch tag
		}
	}
	f.Add([]byte{0, 1, 0, 0})       // one empty frame
	f.Add([]byte{0, 2, 0, 1, 0xff}) // count 2, one frame: must reject
	f.Fuzz(func(t *testing.T, body []byte) {
		frames := 0
		err := WalkBatch(body, func(frame []byte) error {
			frames++
			return nil
		})
		if err != nil {
			if frames != 0 {
				t.Fatalf("WalkBatch called fn %d times before rejecting: %v", frames, err)
			}
			return
		}
		if want := int(binary.BigEndian.Uint16(body)); frames != want {
			t.Fatalf("walked %d frames, header says %d", frames, want)
		}
	})
}

var genCorpus = flag.Bool("wire.gencorpus", false,
	"regenerate the checked-in fuzz seed corpus from the corruption injector")

// TestGenerateFuzzCorpus writes the seed corpus for FuzzDecode and
// FuzzWalkBatch: clean encodings of every message type, bit-flipped frames
// produced by the same netem.FlipBits primitive the fault injectors use,
// and truncations. Skipped unless -wire.gencorpus is set; the output is
// checked in so every `go test` run replays the corpus as regression seeds.
func TestGenerateFuzzCorpus(t *testing.T) {
	if !*genCorpus {
		t.Skip("pass -wire.gencorpus to regenerate testdata/fuzz")
	}
	rng := rand.New(rand.NewSource(2026))
	emit := func(target, name string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range exemplarMsgs() {
		tag := int(m.WireType())
		base := Marshal(m)
		emit("FuzzDecode", fmt.Sprintf("t%02d-clean", tag), base)
		for i := 0; i < 3; i++ {
			fl := append([]byte(nil), base...)
			netem.FlipBits(rng, fl, 1+rng.Intn(3))
			emit("FuzzDecode", fmt.Sprintf("t%02d-flip%d", tag, i), fl)
		}
		emit("FuzzDecode", fmt.Sprintf("t%02d-trunc", tag), base[:len(base)/2])
		emit("FuzzDecode", fmt.Sprintf("t%02d-short", tag), base[:len(base)-1])
		if b, ok := m.(*Batch); ok {
			body := Marshal(b)[1:]
			emit("FuzzWalkBatch", "clean", body)
			for i := 0; i < 3; i++ {
				fl := append([]byte(nil), body...)
				netem.FlipBits(rng, fl, 1+rng.Intn(3))
				emit("FuzzWalkBatch", fmt.Sprintf("flip%d", i), fl)
			}
			emit("FuzzWalkBatch", "trunc", body[:len(body)/2])
		}
	}
}
