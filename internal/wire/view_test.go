package wire

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// classicDecode is the reference oracle for ViewSet.Decode: the allocating
// datagram decode built on Unmarshal. Both sides share the per-type layout
// parsers, so what the differential tests pin is everything around them —
// framing, error accounting, and that aliasing views and owned copies
// re-marshal to the same bytes.
func classicDecode(payload []byte) (msgs []Msg, errs uint32) {
	if len(payload) > 0 && Type(payload[0]) == TBatch {
		err := WalkBatch(payload[1:], func(frame []byte) error {
			if len(frame) == 0 || Type(frame[0]) == TBatch {
				errs++ // batches never nest
				return nil
			}
			m, err := Unmarshal(frame)
			if err != nil {
				errs++
				return nil
			}
			msgs = append(msgs, m)
			return nil
		})
		if err != nil {
			return nil, errs + 1
		}
		return msgs, errs
	}
	m, err := Unmarshal(payload)
	if err != nil {
		return nil, 1
	}
	return []Msg{m}, 0
}

// releaseAll drops the creator reference of every view message plus the walk
// reference, the way the fabric's receive path does after its handlers run.
func releaseAll(s *ViewSet, msgs []Msg) {
	for _, m := range msgs {
		if r, ok := m.(interface{ Release() }); ok {
			r.Release()
		}
	}
	s.Release()
}

// diffDecode runs one payload through the view decoder and the classic
// oracle and requires identical outcomes: same error count, same message
// count, and per message the same wire type and re-marshalled bytes (values
// in view messages alias the set buffer, so re-marshal is the honest
// comparison — DeepEqual would trip over pool plumbing).
func diffDecode(t testing.TB, s *ViewSet, payload []byte) {
	t.Helper()
	want, wantErrs := classicDecode(payload)
	got, gotErrs := s.Decode(payload)
	if gotErrs != wantErrs {
		t.Fatalf("errs = %d, classic = %d (payload %x)", gotErrs, wantErrs, payload)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d msgs, classic %d (payload %x)", len(got), len(want), payload)
	}
	for i := range got {
		if got[i].WireType() != want[i].WireType() {
			t.Fatalf("msg %d: type %v, classic %v", i, got[i].WireType(), want[i].WireType())
		}
		gb, wb := Marshal(got[i]), Marshal(want[i])
		if !bytes.Equal(gb, wb) {
			t.Fatalf("msg %d (%v): re-marshal %x, classic %x", i, got[i].WireType(), gb, wb)
		}
	}
	releaseAll(s, got)
	if s.Live() {
		t.Fatalf("set still live after full release (payload %x)", payload)
	}
}

// buildRawBatch assembles a TBatch datagram from raw frames, bypassing
// Batch.Marshal so tests can include frames the builder would never emit
// (empty, nested, corrupt).
func buildRawBatch(frames [][]byte) []byte {
	out := []byte{byte(TBatch), 0, 0}
	binary.BigEndian.PutUint16(out[1:], uint16(len(frames)))
	for _, f := range frames {
		var ln [2]byte
		binary.BigEndian.PutUint16(ln[:], uint16(len(f)))
		out = append(out, ln[:]...)
		out = append(out, f...)
	}
	return out
}

// corpusInputs loads the checked-in "go test fuzz v1" seed files for the
// named fuzz target — the same corrupted frames the classic decoder is
// regression-tested against.
func corpusInputs(t testing.TB, target string) [][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus %s: %v", target, err)
	}
	var out [][]byte
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading corpus file %s: %v", e.Name(), err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) < 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("corpus file %s: unexpected format", e.Name())
		}
		q := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		data, err := strconv.Unquote(q)
		if err != nil {
			t.Fatalf("corpus file %s: unquote: %v", e.Name(), err)
		}
		out = append(out, []byte(data))
	}
	if len(out) == 0 {
		t.Fatalf("corpus %s is empty", target)
	}
	return out
}

// TestViewDecodeMatchesClassic runs every exemplar message — single frames
// and the full batch — through one reused set (exercising the spare
// re-bucketing between datagrams) and requires byte identity with the
// classic decoder.
func TestViewDecodeMatchesClassic(t *testing.T) {
	s := NewViewSet(nil)
	for _, m := range exemplarMsgs() {
		diffDecode(t, s, Marshal(m))
	}
	// Twice through the set: the second pass decodes entirely from spares.
	for _, m := range exemplarMsgs() {
		diffDecode(t, s, Marshal(m))
	}
}

// TestViewDecodeMatchesClassicMixedBatch covers the per-frame error paths:
// empty frames, nested batches, and truncated bodies inside an otherwise
// valid batch must be skipped with the same error accounting as the classic
// decoder, with the surviving frames still decoded.
func TestViewDecodeMatchesClassicMixedBatch(t *testing.T) {
	good := Marshal(&Write{Reg: 1, Key: 9, Seq: 3, Value: []byte("batched")})
	beat := Marshal(&Heartbeat{From: 4, Seq: 77})
	s := NewViewSet(nil)
	diffDecode(t, s, buildRawBatch([][]byte{
		good,
		{},                      // empty frame: errs++
		{byte(TBatch), 0, 0},    // nested batch: errs++
		good[:10],               // truncated write: errs++
		{byte(TChainCursor), 1}, // short cursor: errs++
		beat,
	}))
	// Batch-level framing corruption: header count exceeds frames present.
	diffDecode(t, s, []byte{byte(TBatch), 0, 2, 0, 1, 0xff})
	// Empty and unknown-type single frames.
	diffDecode(t, s, nil)
	diffDecode(t, s, []byte{0xee, 1, 2, 3})
}

// TestViewDecodeMatchesClassicCorpus replays the checked-in FuzzDecode and
// FuzzWalkBatch seed corpora (clean, bit-flipped, and truncated encodings)
// through the differential harness, reusing one set throughout.
func TestViewDecodeMatchesClassicCorpus(t *testing.T) {
	s := NewViewSet(nil)
	for _, in := range corpusInputs(t, "FuzzDecode") {
		diffDecode(t, s, in)
	}
	for _, body := range corpusInputs(t, "FuzzWalkBatch") {
		// WalkBatch seeds are batch bodies; re-add the datagram tag.
		diffDecode(t, s, append([]byte{byte(TBatch)}, body...))
	}
}

// TestViewSetRecycleFiresOnce pins the reference-count lifecycle: the
// recycle hook fires exactly once, only after the walk reference and every
// message's creator reference are gone, regardless of release order.
func TestViewSetRecycleFiresOnce(t *testing.T) {
	payload := buildRawBatch([][]byte{
		Marshal(&Write{Reg: 1, Key: 2, Value: []byte("v")}),
		Marshal(&Heartbeat{From: 1, Seq: 1}),
		Marshal(&WriteAck{Reg: 1, Key: 2, Seq: 3}),
	})
	// All release orders of [set, msg0, msg1, msg2].
	perms := permutations(4)
	for _, perm := range perms {
		recycled := 0
		s := NewViewSet(func(*ViewSet) { recycled++ })
		msgs, errs := s.Decode(payload)
		if errs != 0 || len(msgs) != 3 {
			t.Fatalf("decode: %d msgs, %d errs", len(msgs), errs)
		}
		for i, idx := range perm {
			if recycled != 0 {
				t.Fatalf("perm %v: recycled before release %d", perm, i)
			}
			if !s.Live() {
				t.Fatalf("perm %v: set dead before release %d", perm, i)
			}
			if idx == 0 {
				s.Release()
			} else {
				msgs[idx-1].(interface{ Release() }).Release()
			}
		}
		if recycled != 1 {
			t.Fatalf("perm %v: recycle fired %d times, want 1", perm, recycled)
		}
		if s.Live() {
			t.Fatalf("perm %v: set live after full release", perm)
		}
	}
}

func permutations(n int) [][]int {
	base := make([]int, n)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), base...))
			return
		}
		for i := k; i < n; i++ {
			base[k], base[i] = base[i], base[k]
			rec(k + 1)
			base[k], base[i] = base[i], base[k]
		}
	}
	rec(0)
	return out
}

// TestViewSetRefKeepsSetAlive: an extra Ref on one view message (the chain
// co-processor handoff takes one) holds the whole set — and therefore the
// message's aliased value bytes — past the walk release.
func TestViewSetRefKeepsSetAlive(t *testing.T) {
	payload := buildRawBatch([][]byte{
		Marshal(&Write{Reg: 1, Key: 2, Value: []byte("abcdef")}),
		Marshal(&Heartbeat{From: 1, Seq: 1}),
	})
	recycled := 0
	s := NewViewSet(func(*ViewSet) { recycled++ })
	msgs, _ := s.Decode(payload)
	w := msgs[0].(*Write)
	w.Ref() // the deferred-handler reference
	releaseAll(s, msgs)
	if recycled != 0 || !s.Live() {
		t.Fatalf("set recycled (%d) while a message reference is outstanding", recycled)
	}
	if string(w.Value) != "abcdef" {
		t.Fatalf("aliased value corrupted while referenced: %q", w.Value)
	}
	w.Release()
	if recycled != 1 || s.Live() {
		t.Fatalf("recycle = %d, live = %v after final release", recycled, s.Live())
	}
}

// TestViewSetReuseWhileLivePanics: handing a live set a new datagram would
// scribble over aliased values, so Decode must refuse loudly.
func TestViewSetReuseWhileLivePanics(t *testing.T) {
	s := NewViewSet(nil)
	msgs, _ := s.Decode(Marshal(&Write{Reg: 1, Key: 2, Value: []byte("held")}))
	s.Release() // walk reference gone, message still holds the set
	defer func() {
		if recover() == nil {
			t.Fatal("Decode on a live set did not panic")
		}
		msgs[0].(*Write).Release() // drop the held message; the test stays leak-clean
	}()
	s.Decode(Marshal(&Heartbeat{From: 1, Seq: 1}))
}

// TestViewMsgDoubleReleasePanics: releasing a view message past its last
// reference is a refcount bug and must panic rather than silently corrupt
// the pool.
func TestViewMsgDoubleReleasePanics(t *testing.T) {
	s := NewViewSet(nil)
	msgs, _ := s.Decode(Marshal(&Heartbeat{From: 1, Seq: 1}))
	releaseAll(s, msgs)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	msgs[0].(*Heartbeat).Release()
}

// TestViewSetOverReleasePanics: same property for the set's own walk
// reference.
func TestViewSetOverReleasePanics(t *testing.T) {
	s := NewViewSet(nil)
	msgs, _ := s.Decode(Marshal(&Heartbeat{From: 1, Seq: 1}))
	releaseAll(s, msgs)
	defer func() {
		if recover() == nil {
			t.Fatal("set over-release did not panic")
		}
	}()
	s.Release()
}

// TestViewSetSparesReused is the white-box leak check: after a full
// release/redecode cycle the set hands back the same structs (nothing
// leaked, nothing reallocated) and the fresh decode overwrites every field,
// values included.
func TestViewSetSparesReused(t *testing.T) {
	s := NewViewSet(nil)
	msgs, _ := s.Decode(Marshal(&Write{Reg: 1, Key: 2, Value: []byte("first")}))
	first := msgs[0].(*Write)
	releaseAll(s, msgs)

	msgs, _ = s.Decode(Marshal(&Write{Reg: 9, Key: 8, Value: []byte("second!")}))
	second := msgs[0].(*Write)
	if first != second {
		t.Fatal("released view struct was not reused by the next decode")
	}
	if second.Reg != 9 || second.Key != 8 || string(second.Value) != "second!" {
		t.Fatalf("reused struct carries stale state: %+v", second)
	}
	releaseAll(s, msgs)
}

// TestViewDecodeZeroAllocs pins the headline property: a warmed set decodes
// a full mixed batch datagram — chain writes with values, EWO updates with
// entries, heartbeats — with zero allocations per datagram.
func TestViewDecodeZeroAllocs(t *testing.T) {
	payload := Marshal(&Batch{Msgs: []Msg{
		&Write{Reg: 1, Key: 9, Seq: 4, WriteID: 7, Writer: 2, Epoch: 1, Value: []byte("batched!")},
		&WriteAck{Reg: 1, Key: 9, Seq: 4, WriteID: 7, Writer: 2, Epoch: 1},
		&EWOUpdate{Reg: 2, From: 1, Sync: true, Entries: []EWOEntry{
			{Key: 3, Value: []byte("zig")}, {Key: 4, Value: []byte("zag")}}},
		&Heartbeat{From: 1, Seq: 1},
		&ReadReply{Reg: 1, Key: 9, ReqID: 5, Value: []byte("reply")},
	}})
	s := NewViewSet(nil)
	var lastErrs uint32
	cycle := func() {
		msgs, errs := s.Decode(payload)
		lastErrs = errs
		releaseAll(s, msgs)
	}
	cycle() // warm: first pass may grow buffers and allocate structs
	if lastErrs != 0 {
		t.Fatalf("decode errs = %d", lastErrs)
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("allocs per batched decode = %v, want 0", n)
	}
}

// FuzzViewDecode fuzzes the view decoder against the classic decoder as a
// live oracle: identical messages and error counts on every input, plus a
// clean reference-count drain afterwards. Seeds are the exemplars and the
// checked-in FuzzDecode corpus, so every corruption shape the classic
// decoder is pinned against also exercises the views.
func FuzzViewDecode(f *testing.F) {
	for _, m := range exemplarMsgs() {
		f.Add(Marshal(m))
	}
	for _, in := range corpusInputs(f, "FuzzDecode") {
		f.Add(in)
	}
	for _, body := range corpusInputs(f, "FuzzWalkBatch") {
		f.Add(append([]byte{byte(TBatch)}, body...))
	}
	f.Add(ewoCountBomb)
	f.Fuzz(func(t *testing.T, data []byte) {
		recycled := 0
		s := NewViewSet(func(*ViewSet) { recycled++ })
		diffDecode(t, s, data)
		if recycled != 1 {
			t.Fatalf("recycle fired %d times, want 1", recycled)
		}
	})
}
