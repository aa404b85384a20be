package lincheck

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// refCheck is a brute-force linearizability reference for small histories:
// enumerate every subset of pending writes and every permutation of the
// chosen ops, validate the permutation against real-time order (there must
// exist non-decreasing linearization points t_i ∈ [Start_i, End_i]), and
// replay register semantics. Exponential, so only usable for ≤ ~7 ops.
func refCheck(history []Op) bool {
	var completed, pend []Op
	for _, o := range history {
		if o.IsPending() {
			if o.Write {
				pend = append(pend, o)
			}
			continue
		}
		completed = append(completed, o)
	}
	for sub := 0; sub < 1<<len(pend); sub++ {
		ops := append([]Op(nil), completed...)
		for j := range pend {
			if sub&(1<<j) != 0 {
				ops = append(ops, pend[j])
			}
		}
		if permuteOK(ops, make([]bool, len(ops)), nil) {
			return true
		}
	}
	return false
}

func permuteOK(ops []Op, taken []bool, order []Op) bool {
	if len(order) == len(ops) {
		return validOrder(order)
	}
	for i := range ops {
		if taken[i] {
			continue
		}
		taken[i] = true
		ok := permuteOK(ops, taken, append(order, ops[i]))
		taken[i] = false
		if ok {
			return true
		}
	}
	return false
}

func validOrder(order []Op) bool {
	// Linearization points are real-valued, so a valid assignment exists iff
	// the greedy non-decreasing t_i = max(t_{i-1}, Start_i) stays ≤ End_i.
	t := int64(0)
	value := Initial
	for _, o := range order {
		if o.Start > t {
			t = o.Start
		}
		if t > o.End {
			return false
		}
		if o.Write {
			value = o.Value
		} else if o.Value != value {
			return false
		}
	}
	return true
}

// decodeHistory turns fuzz bytes into a small history: 3 bytes per op
// (start/flags, duration, value), at most 6 ops so the permutation
// reference stays tractable.
func decodeHistory(data []byte) []Op {
	if len(data) > 0 && data[0]&0x80 != 0 {
		return decodeWide(data[1:])
	}
	var h []Op
	for i := 0; i+2 < len(data) && len(h) < 6; i += 3 {
		start := int64(data[i] & 15)
		pending := data[i]&16 != 0
		write := data[i]&32 != 0
		value := string(rune('a' + data[i+2]%3))
		if pending {
			h = append(h, Pending(start, write, value))
		} else {
			h = append(h, Op{start, start + int64(data[i+1]%8), write, value})
		}
	}
	return h
}

// decodeWide is the second layout, selected by the top bit of the first
// byte (which the small layout never sets): up to 64 ops in start order,
// 3 bytes each — start delta from the previous op, duration (255 = pending),
// and write flag (bit 7) over one of 64 values. Times are ranks, which is all
// linearizability depends on, so a recorded protocol history compresses into
// it exactly; testdata/fuzz/FuzzLincheck/seed755-window is the 57-op window
// (plus 2 pending writes) that used to hang the explorer's shrinker.
func decodeWide(data []byte) []Op {
	var h []Op
	start := int64(0)
	for i := 0; i+2 < len(data) && len(h) < 64; i += 3 {
		start += int64(data[i])
		o := Op{Start: start, End: start + int64(data[i+1]), Write: data[i+2]&0x80 != 0,
			Value: string(rune('A' + data[i+2]&63))}
		if data[i+1] == 255 {
			o.End = Inf
		}
		h = append(h, o)
	}
	return h
}

func encodeOp(o Op) [3]byte {
	var b [3]byte
	b[0] = byte(o.Start) & 15
	if o.IsPending() {
		b[0] |= 16
	}
	if o.Write {
		b[0] |= 32
	}
	if !o.IsPending() {
		b[1] = byte(o.End-o.Start) & 7
	}
	b[2] = byte(o.Value[0] - 'a')
	return b
}

func encodeHistory(h []Op) []byte {
	var out []byte
	for _, o := range h {
		b := encodeOp(o)
		out = append(out, b[:]...)
	}
	return out
}

// FuzzLincheck cross-validates the windowed Wing-Gong search against the
// brute-force permutation reference on small generated histories. The seed
// corpus covers the classically tricky shapes from Lowe's "Testing for
// linearizability" examples: concurrent write/read pairs where only one
// ordering is legal, stale reads, flip-flop reads, and pending writes that
// must not resurface after a completed overwrite.
func FuzzLincheck(f *testing.F) {
	seeds := [][]Op{
		// Lowe Fig. 2-style: read concurrent with two sequential writes may
		// return either, but the trailing read pins the final value.
		{{0, 1, true, "a"}, {2, 9, true, "b"}, {3, 8, false, "a"}, {10, 11, false, "b"}},
		// Illegal: flip-flop between two completed writes.
		{{0, 5, true, "a"}, {0, 5, true, "b"}, {6, 7, false, "a"}, {8, 9, false, "b"}},
		// Stale read after completed overwrite.
		{{0, 1, true, "a"}, {2, 3, true, "b"}, {4, 5, false, "a"}},
		// Pending write observed, then un-observed (illegal).
		{Pending(0, true, "a"), {1, 2, false, "a"}, {3, 4, false, "c"}},
		// Pending write that takes effect (legal).
		{Pending(0, true, "a"), {1, 2, false, "a"}},
		// Read before a pending write's invocation cannot observe it.
		{{0, 1, false, "a"}, Pending(2, true, "a")},
		// Two pending writes racing with a completed read.
		{Pending(0, true, "a"), Pending(0, true, "b"), {1, 2, false, "b"}, {3, 4, false, "a"}},
		// Concurrent chain: overlapping writes with an interleaved read.
		{{0, 4, true, "a"}, {2, 6, true, "b"}, {3, 5, false, "a"}, {7, 8, false, "a"}},
	}
	for _, s := range seeds {
		f.Add(encodeHistory(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := decodeHistory(data)
		v := Decide(h)
		if Check(h) != (v == Linearizable) {
			t.Fatalf("Check disagrees with Decide = %v, history = %v", v, h)
		}
		if len(h) > 6 {
			// Too long for the permutation reference: the property is that
			// Decide returns at all — within its budget — with some verdict.
			return
		}
		if want := refCheck(h); v == Undecided || (v == Linearizable) != want {
			t.Fatalf("Decide = %v, reference = %v, history = %v", v, want, h)
		}
	})
}

// TestSeed755WindowIsUndecided pins the budget on the corpus entry it was
// added for: the search gives up (quickly) rather than hanging, and giving up
// is not a pass.
func TestSeed755WindowIsUndecided(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzLincheck/seed755-window")
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(strings.SplitN(string(raw), "\n", 2)[1], "[]byte("), ")\n")
	data, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatal(err)
	}
	h := decodeHistory([]byte(data))
	if len(h) != 60 {
		t.Fatalf("decoded %d ops, want the 57-op window, the write it starts from and 2 pending writes", len(h))
	}
	start := time.Now()
	if v := Decide(h); v != Undecided {
		t.Fatalf("Decide = %v, want undecided", v)
	}
	if Check(h) {
		t.Fatal("an undecided history was reported linearizable")
	}
	t.Logf("gave up after %s", time.Since(start))

	// A key the checker gives up on does not hide a later key's violation.
	var r Recorder
	for _, o := range h {
		r.Add(1, o)
	}
	if _, ok := r.CheckAll(); ok {
		t.Fatal("CheckAll passed an undecided key")
	}
	r.Add(2, Op{0, 1, true, "x"})
	r.Add(2, Op{5, 6, false, "stale"})
	if bad, _, v := r.CheckAllDetailed(); bad != 2 || v != Violation {
		t.Fatalf("CheckAllDetailed = key %d, %v; want key 2's violation", bad, v)
	}
}

// TestRefCheckSanity pins the reference itself on hand-checked cases so a
// fuzz divergence clearly implicates one side.
func TestRefCheckSanity(t *testing.T) {
	if !refCheck([]Op{{0, 1, true, "a"}, {2, 3, false, "a"}}) {
		t.Fatal("reference rejected legal history")
	}
	if refCheck([]Op{{0, 1, true, "a"}, {2, 3, false, "b"}}) {
		t.Fatal("reference accepted illegal read")
	}
	if !refCheck([]Op{Pending(0, true, "a"), {1, 2, false, Initial}}) {
		t.Fatal("reference rejected ignorable pending write")
	}
	if refCheck([]Op{Pending(0, true, "a"), {1, 2, false, "a"}, {3, 4, false, Initial}}) {
		t.Fatal("reference let a pending write un-apply after being observed")
	}
}
