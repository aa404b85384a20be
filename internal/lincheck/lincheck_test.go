package lincheck

import (
	"math/rand"
	"testing"
)

func TestEmptyAndTrivial(t *testing.T) {
	if !Check(nil) {
		t.Fatal("empty history must be linearizable")
	}
	if !Check([]Op{{0, 1, true, "a"}}) {
		t.Fatal("single write")
	}
	if !Check([]Op{{0, 1, false, Initial}}) {
		t.Fatal("read of initial value")
	}
	if Check([]Op{{0, 1, false, "ghost"}}) {
		t.Fatal("read of never-written value accepted")
	}
}

func TestSequentialHistory(t *testing.T) {
	h := []Op{
		{0, 1, true, "a"},
		{2, 3, false, "a"},
		{4, 5, true, "b"},
		{6, 7, false, "b"},
	}
	if !Check(h) {
		t.Fatal("legal sequential history rejected")
	}
	// Stale read after a completed overwrite.
	h[3] = Op{6, 7, false, "a"}
	if Check(h) {
		t.Fatal("stale read accepted")
	}
}

func TestConcurrentWriteRead(t *testing.T) {
	// Read concurrent with a write may return either old or new value.
	base := []Op{{0, 10, true, "a"}}
	if !Check(append(base, Op{5, 15, false, "a"})) {
		t.Fatal("concurrent read of new value rejected")
	}
	if !Check(append(base, Op{5, 15, false, Initial})) {
		t.Fatal("concurrent read of old value rejected")
	}
}

func TestRealTimeOrderEnforced(t *testing.T) {
	// W(a) completes, then W(b) completes, then a read returns "a": illegal.
	h := []Op{
		{0, 1, true, "a"},
		{2, 3, true, "b"},
		{4, 5, false, "a"},
	}
	if Check(h) {
		t.Fatal("real-time order violation accepted")
	}
}

func TestConcurrentWritesEitherOrder(t *testing.T) {
	// Two overlapping writes: later reads may see either, but consistently.
	h := []Op{
		{0, 10, true, "a"},
		{0, 10, true, "b"},
		{20, 21, false, "a"},
	}
	if !Check(h) {
		t.Fatal("a-last order rejected")
	}
	h[2] = Op{20, 21, false, "b"}
	if !Check(h) {
		t.Fatal("b-last order rejected")
	}
	// But two sequential reads cannot flip-flop.
	h = append(h, Op{22, 23, false, "a"})
	if Check(h) {
		t.Fatal("flip-flop reads accepted")
	}
}

func TestReadYourWriteViolation(t *testing.T) {
	// A committed write followed by a read of the initial value: illegal.
	h := []Op{
		{0, 1, true, "a"},
		{5, 6, false, Initial},
	}
	if Check(h) {
		t.Fatal("lost update accepted")
	}
}

func TestLongSequentialHistoryFast(t *testing.T) {
	var h []Op
	for i := 0; i < 60; i += 2 {
		v := string(rune('a' + i%26))
		h = append(h, Op{int64(i * 10), int64(i*10 + 5), true, v})
		h = append(h, Op{int64(i*10 + 6), int64(i*10 + 9), false, v})
	}
	if !Check(h) {
		t.Fatal("long legal history rejected")
	}
}

func TestLongHistorySplitsIntoWindows(t *testing.T) {
	// 300 ops, far beyond the 64-op bitmask limit, but with quiescent cuts
	// between each write/read pair: the windowed splitter must handle it.
	var h []Op
	cur := Initial
	now := int64(0)
	for i := 0; i < 150; i++ {
		v := string(rune('a' + i%26))
		h = append(h, Op{now, now + 5, true, v})
		h = append(h, Op{now + 3, now + 9, false, v}) // concurrent with its write
		cur = v
		now += 20
	}
	if !Check(h) {
		t.Fatal("long legal history rejected")
	}
	// Corrupt one read deep in the history: must be rejected.
	bad := make([]Op, len(h))
	copy(bad, h)
	bad[201].Value = "ZZZ"
	if Check(bad) {
		t.Fatal("corrupted long history accepted")
	}
	// Stale read across a window boundary: read an old value after a
	// completed overwrite two windows earlier.
	stale := make([]Op, len(h))
	copy(stale, h)
	stale[299].Value = stale[280].Value
	if Check(stale) {
		t.Fatal("stale cross-window read accepted")
	}
	_ = cur
}

func TestLongConcurrentWindowUsesBigFallback(t *testing.T) {
	// A 70-op ladder where op i overlaps op i+1: every adjacent pair is
	// concurrent, so no quiescent cut exists and the >64-op window must go
	// through the big-bitset fallback. Concurrency width stays 2, so the
	// memoized search remains fast.
	var h []Op
	for i := 0; i < 70; i++ {
		v := string(rune('a' + i%26))
		h = append(h, Op{int64(i * 10), int64(i*10 + 15), true, v})
	}
	last := h[69].Value
	h = append(h, Op{800, 801, false, last})
	if !Check(h) {
		t.Fatal("legal >64-op concurrent window rejected")
	}
	h[70].Value = "ZZZ"
	if Check(h) {
		t.Fatal("read of never-written value accepted by big fallback")
	}
}

func TestPendingWriteOptional(t *testing.T) {
	// A pending write may or may not have taken effect; both continuations
	// are legal.
	h := []Op{
		Pending(0, true, "a"),
		{10, 11, false, "a"}, // it took effect
	}
	if !Check(h) {
		t.Fatal("pending write taking effect rejected")
	}
	h[1] = Op{10, 11, false, Initial} // it did not
	if !Check(h) {
		t.Fatal("pending write not taking effect rejected")
	}
	// But it cannot flip-flop: seen, then unseen.
	h = []Op{
		Pending(0, true, "a"),
		{10, 11, false, "a"},
		{12, 13, false, Initial},
	}
	if Check(h) {
		t.Fatal("pending write un-applied after being observed")
	}
}

func TestPendingWriteCannotTakeEffectEarly(t *testing.T) {
	// The pending write starts after the read completes: the read cannot
	// observe it.
	h := []Op{
		{0, 1, false, "a"},
		Pending(5, true, "a"),
	}
	if Check(h) {
		t.Fatal("read observed a write invoked after it completed")
	}
}

func TestPendingReadIgnored(t *testing.T) {
	h := []Op{
		{0, 1, true, "a"},
		Pending(2, false, "nonsense"), // no response observed: no constraint
	}
	if !Check(h) {
		t.Fatal("pending read constrained the history")
	}
}

func TestPendingAcrossWindows(t *testing.T) {
	// A pending write from an early window may take effect in a much later
	// window (e.g. a delayed chain write applying after failover).
	var h []Op
	now := int64(0)
	for i := 0; i < 100; i++ {
		v := string(rune('a' + i%26))
		h = append(h, Op{now, now + 5, true, v})
		h = append(h, Op{now + 6, now + 9, false, v})
		now += 20
	}
	h = append(h, Pending(3, true, "LATE"))
	h = append(h, Op{now, now + 1, false, "LATE"}) // applied at the very end
	if !Check(h) {
		t.Fatal("late-applying pending write rejected")
	}
	// Once overwritten by a later completed write, it cannot resurface.
	h = append(h, Op{now + 10, now + 11, true, "final"})
	h = append(h, Op{now + 20, now + 21, false, "LATE"})
	if Check(h) {
		t.Fatal("pending write resurfaced after completed overwrite")
	}
}

func TestCheckAllDetailed(t *testing.T) {
	var r Recorder
	r.Add(7, Op{0, 1, true, "a"})
	r.Add(7, Op{2, 3, false, "a"})
	if _, _, v := r.CheckAllDetailed(); v != Linearizable {
		t.Fatalf("legal history: %v", v)
	}
	r.Add(9, Op{0, 1, true, "x"})
	r.Add(9, Op{5, 6, false, "stale"})
	r.Add(3, Op{0, 1, true, "y"})
	r.Add(3, Op{5, 6, false, "also-stale"})
	bad, hist, v := r.CheckAllDetailed()
	if v != Violation {
		t.Fatalf("violations not detected: %v", v)
	}
	if bad != 3 {
		t.Fatalf("badKey = %d, want smallest violating key 3", bad)
	}
	if len(hist) != 2 || hist[1].Value != "also-stale" {
		t.Fatalf("sub-history = %v", hist)
	}
}

func TestCheckAllDeterministicBadKey(t *testing.T) {
	// Multiple violating keys: CheckAll must always report the smallest.
	for trial := 0; trial < 20; trial++ {
		var r Recorder
		for _, k := range []uint64{42, 7, 99, 13} {
			r.Add(k, Op{0, 1, true, "v"})
			r.Add(k, Op{5, 6, false, "stale"})
		}
		if bad, ok := r.CheckAll(); ok || bad != 7 {
			t.Fatalf("trial %d: badKey = %d, want 7", trial, bad)
		}
	}
}

func TestPartition(t *testing.T) {
	keys := []uint64{1, 2, 1}
	ops := []Op{{0, 1, true, "a"}, {0, 1, true, "b"}, {2, 3, false, "a"}}
	m := Partition(keys, ops)
	if len(m[1]) != 2 || len(m[2]) != 1 {
		t.Fatalf("partition = %v", m)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	Partition([]uint64{1}, ops)
}

func TestRecorder(t *testing.T) {
	var r Recorder
	r.Add(1, Op{0, 1, true, "a"})
	r.Add(1, Op{2, 3, false, "a"})
	r.Add(2, Op{0, 1, true, "x"})
	if r.Len() != 3 {
		t.Fatal("len")
	}
	if _, ok := r.CheckAll(); !ok {
		t.Fatal("legal history rejected")
	}
	r.Add(2, Op{5, 6, false, "stale"})
	if bad, ok := r.CheckAll(); ok || bad != 2 {
		t.Fatalf("violation not attributed to key 2: %d %v", bad, ok)
	}
}

func TestRecorderBadOpPanics(t *testing.T) {
	var r Recorder
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for End < Start")
		}
	}()
	r.Add(1, Op{Start: 5, End: 1})
}

// Randomized cross-validation: generate histories from a real sequentially
// consistent execution (so they are linearizable by construction) and
// verify Check accepts them; then corrupt one read and verify high
// rejection sensitivity for strictly-sequential histories.
func TestRandomizedLegalHistories(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var h []Op
		now := int64(0)
		cur := Initial
		n := 5 + rng.Intn(20)
		for i := 0; i < n; i++ {
			dur := int64(rng.Intn(5) + 1)
			if rng.Intn(2) == 0 {
				v := string(rune('a' + rng.Intn(26)))
				h = append(h, Op{now, now + dur, true, v})
				cur = v
			} else {
				h = append(h, Op{now, now + dur, false, cur})
			}
			now += dur + 1
		}
		if !Check(h) {
			t.Fatalf("trial %d: legal history rejected: %v", trial, h)
		}
	}
}

func BenchmarkCheckSequential(b *testing.B) {
	var h []Op
	for i := 0; i < 30; i += 2 {
		v := string(rune('a' + i%26))
		h = append(h, Op{int64(i * 10), int64(i*10 + 5), true, v})
		h = append(h, Op{int64(i*10 + 6), int64(i*10 + 9), false, v})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !Check(h) {
			b.Fatal("rejected")
		}
	}
}

// TestWideConcurrencyWindowFast pins the forced-read pruning: a frozen
// replica stalling the chain yields dozens of mutually overlapping ops with
// distinct write values — one giant window with no quiescent cut. Without
// eagerly consuming reads that match the current value this is exponential
// (it took ~50s before the pruning); with it, milliseconds.
func TestWideConcurrencyWindowFast(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var h []Op
	// 12 sequential writes with distinct values...
	for i := 0; i < 12; i++ {
		h = append(h, Op{Start: int64(i * 10), End: int64(i*10 + 4), Write: true, Value: string(rune('a' + i))})
	}
	// ...and 30 reads all overlapping the whole history (each returns the
	// value of some write that overlaps its invocation window — legal).
	for i := 0; i < 30; i++ {
		v := rng.Intn(12)
		h = append(h, Op{Start: 0, End: 130, Write: false, Value: string(rune('a' + v))})
	}
	if !Check(h) {
		t.Fatal("legal wide-window history rejected")
	}
	// A read of a value from a strictly earlier era, invoked after that era
	// provably ended, must still be rejected.
	bad := append(append([]Op(nil), h...), Op{Start: 200, End: 201, Write: false, Value: "a"})
	bad = append(bad, Op{Start: 150, End: 160, Write: false, Value: string(rune('a' + 11))})
	if Check(bad) {
		t.Fatal("stale read in wide-window history accepted")
	}
}
