// The pending-event set: a timing wheel in front of the heap.
//
// Events pop in the total order (at, khi, klo) — see eventLess — and that
// order is the whole contract: nothing above this file can tell how the set
// is stored. A single heap honours it at O(log n) branchy comparisons per
// pop, and n is dominated by events that are nowhere near due (a replayed
// trace pre-schedules its injections, every protocol keeps millisecond
// timers armed) while almost every push lands a few hundred nanoseconds to a
// few microseconds ahead of the clock. So the set is tiered by distance from
// the clock, measured in ticks of 1<<tickShift ns:
//
//	bottom  tick <= cur                 4-ary heap, ordered by eventLess
//	wheel   cur < tick < cur+wheelSlots unsorted list per tick, bitmap-indexed
//	far     tick > cur                  4-ary heap (everything past the wheel)
//
// cur is the tick under the clock. Every event in the bottom tier precedes
// every event outside it, so the minimum is bottom[0] whenever the bottom
// tier is non-empty; every ordering decision is still made by eventLess,
// over the handful of events that share a tick. When the bottom tier runs
// dry, cur advances to the earliest occupied tick (bitmap scan for the
// wheel, far[0] for the far tier) and that tick's events move down. A far
// event is compared again on every advance, so one that was beyond the
// horizon when pushed is found the moment its tick comes up.
//
// Cost: a push is O(1) into the wheel, a pop is a push+pop on a heap of the
// events sharing one tick. Whatever lands outside the wheel pays one heap of
// its own tier — never more than the single heap it replaces plus a constant
// (a tick compare on push, a bitmap probe per advance).
package sim

import (
	"math"
	"math/bits"
)

// Wheel geometry. 128 ns ticks keep the events of one tick to a handful at
// the rates the models run (a 400 ns pipeline stage and a 10 µs link put ~50
// events in flight across ~80 ticks), so the bottom heap stays a few entries
// deep; 1024 slots put the horizon at 131 µs, past every data-centre link
// latency the experiments configure, while the fixed footprint (8 KB of list
// heads + 136 B of bitmap per engine) stays small enough for sweeps that
// build thousands of engines.
const (
	tickShift  = 7
	wheelSlots = 1 << 10
	wheelMask  = wheelSlots - 1
)

const maxTime = Time(math.MaxInt64)

func tickOf(t Time) int64 { return int64(t) >> tickShift }

// tier says which part of the pending set holds a queued event.
type tier uint8

const (
	tierBottom tier = iota
	tierWheel
	tierFar
)

// eventHeap is an inlined 4-ary min-heap specialized to *event: no
// heap.Interface boxing, no virtual Less/Swap calls, and a branching factor
// of 4 halves the tree depth versus a binary heap (better for the pop-heavy
// access pattern of a drain loop — pops dominate and each level costs one
// cache line of child pointers).
type eventHeap []*event

// up sifts the event at index i toward the root.
func (q eventHeap) up(i int) {
	ev := q[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].idx = i
		i = p
	}
	q[i] = ev
	ev.idx = i
}

// down sifts the event at index i toward the leaves. It reports whether the
// event moved.
func (q eventHeap) down(i int) bool {
	ev := q[i]
	n := len(q)
	start := i
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if eventLess(q[k], q[m]) {
				m = k
			}
		}
		if !eventLess(q[m], ev) {
			break
		}
		q[i] = q[m]
		q[i].idx = i
		i = m
	}
	q[i] = ev
	ev.idx = i
	return i != start
}

// push inserts ev into the heap.
func (q *eventHeap) push(ev *event) {
	ev.idx = len(*q)
	*q = append(*q, ev)
	q.up(ev.idx)
}

// pop removes and returns the minimum event.
func (q *eventHeap) pop() *event {
	old := *q
	n := len(old)
	top := old[0]
	last := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	if n > 1 {
		old[0] = last
		last.idx = 0
		(*q).down(0)
	}
	return top
}

// removeAt deletes the event at heap index i (Timer.Stop's eager removal).
func (q *eventHeap) removeAt(i int) {
	old := *q
	n := len(old)
	last := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	if i < n-1 {
		old[i] = last
		last.idx = i
		if !(*q).down(i) {
			(*q).up(i)
		}
	}
}

// pendingSet is the tiered set described at the top of this file.
//
// Invariants, with tick = tickOf(ev.at):
//
//	bottom: tick <= cur
//	wheel:  cur < tick < cur+wheelSlots, in slots[tick&wheelMask]
//	far:    tick > cur
//
// cur only grows, and only to a tick no wheel or far event precedes, so a
// slot holds events of one tick and slots[cur&wheelMask] is empty.
type pendingSet struct {
	n      int   // events queued across all tiers
	cur    int64 // tick under the clock
	bottom eventHeap
	far    eventHeap
	// occ has one bit per non-empty slot; sum has one bit per non-zero word
	// of occ, so the next occupied slot is two trailing-zero counts away.
	sum   uint64
	occ   [wheelSlots / 64]uint64
	slots [wheelSlots]*event
}

// push queues ev in the tier its distance from the clock selects.
func (q *pendingSet) push(ev *event) {
	q.n++
	t := tickOf(ev.at)
	switch d := t - q.cur; {
	case d <= 0:
		ev.tier = tierBottom
		q.bottom.push(ev)
	case d < wheelSlots:
		ev.tier = tierWheel
		s := int(t & wheelMask)
		head := q.slots[s]
		ev.next, ev.prev = head, nil
		if head != nil {
			head.prev = ev
		} else {
			q.occ[s>>6] |= 1 << (s & 63)
			q.sum |= 1 << (s >> 6)
		}
		q.slots[s] = ev
	default:
		ev.tier = tierFar
		q.far.push(ev)
	}
}

// pop removes and returns the minimum event. The caller has settled the set:
// the bottom tier is non-empty.
func (q *pendingSet) pop() *event {
	q.n--
	return q.bottom.pop()
}

// remove unqueues ev wherever it is: an O(1) unlink in the wheel, a heap
// removal in the bottom and far tiers.
func (q *pendingSet) remove(ev *event) {
	q.n--
	switch ev.tier {
	case tierBottom:
		q.bottom.removeAt(ev.idx)
	case tierFar:
		q.far.removeAt(ev.idx)
	default:
		if ev.next != nil {
			ev.next.prev = ev.prev
		}
		if ev.prev != nil {
			ev.prev.next = ev.next
			return
		}
		s := int(tickOf(ev.at) & wheelMask)
		q.slots[s] = ev.next
		if ev.next == nil {
			q.clearSlot(s)
		}
	}
}

func (q *pendingSet) clearSlot(s int) {
	w := s >> 6
	if q.occ[w] &^= 1 << (s & 63); q.occ[w] == 0 {
		q.sum &^= 1 << w
	}
}

// nextSlot returns the first occupied slot at or after from in ring order.
// The wheel must be non-empty.
func (q *pendingSet) nextSlot(from int) int {
	w := from >> 6
	if m := q.occ[w] >> (from & 63); m != 0 {
		return from + bits.TrailingZeros64(m)
	}
	// Words after w, then wrapping around through w itself, whose occupied
	// bits (if any) are all below from.
	if hi := q.sum >> (w + 1) << (w + 1); hi != 0 {
		w = bits.TrailingZeros64(hi)
	} else {
		w = bits.TrailingZeros64(q.sum)
	}
	return w<<6 + bits.TrailingZeros64(q.occ[w])
}

// nextTick returns the earliest tick that holds an event outside the bottom
// tier; ok is false when there is none.
func (q *pendingSet) nextTick() (t int64, ok bool) {
	if q.sum != 0 {
		from := int(q.cur+1) & wheelMask
		t, ok = q.cur+1+int64((q.nextSlot(from)-from)&wheelMask), true
	}
	if len(q.far) > 0 {
		if ft := tickOf(q.far[0].at); !ok || ft < t {
			t, ok = ft, true
		}
	}
	return t, ok
}

// advance moves the clock tick to c and the events of tick c down to the
// bottom tier. c must be past cur and no wheel or far event may precede it.
func (q *pendingSet) advance(c int64) {
	q.cur = c
	s := int(c & wheelMask)
	if ev := q.slots[s]; ev != nil {
		q.slots[s] = nil
		q.clearSlot(s)
		for ev != nil {
			next := ev.next
			ev.tier = tierBottom
			q.bottom.push(ev)
			ev = next
		}
	}
	for len(q.far) > 0 && tickOf(q.far[0].at) <= c {
		ev := q.far.pop()
		ev.tier = tierBottom
		q.bottom.push(ev)
	}
}

// settle reports whether the earliest pending event is due at or before
// limit, moving it (and its tick) into the bottom tier if so. cur never
// advances past limit's tick: an idle stretch that ends with only a distant
// timer pending must not drag the wheel out to that timer, or everything
// scheduled in between would land in the bottom heap.
func (q *pendingSet) settle(limit Time) bool {
	if len(q.bottom) == 0 {
		c, ok := q.nextTick()
		if !ok || c > tickOf(limit) {
			return false
		}
		q.advance(c)
	}
	return q.bottom[0].at <= limit
}

// catchUp re-anchors the wheel after the clock jumped to now without a pop
// (RunUntil reaching its deadline), so delays scheduled from the new clock
// are measured from it. No pending event may precede now.
func (q *pendingSet) catchUp(now Time) {
	if c := tickOf(now); c > q.cur {
		q.advance(c)
	}
}

// nextAt returns the time of the earliest pending event without moving
// anything: the heads of the two heaps, or a walk of the next occupied slot.
func (q *pendingSet) nextAt() (Time, bool) {
	if len(q.bottom) > 0 {
		return q.bottom[0].at, true
	}
	if q.n == 0 {
		return 0, false
	}
	t := maxTime
	if len(q.far) > 0 {
		t = q.far[0].at
	}
	if q.sum != 0 {
		for ev := q.slots[q.nextSlot(int(q.cur+1)&wheelMask)]; ev != nil; ev = ev.next {
			if ev.at < t {
				t = ev.at
			}
		}
	}
	return t, true
}
