// Package obs is the observability layer shared by every SwiShmem
// component: a ring-buffer event tracer stamped with simulator virtual
// time, and a metrics registry that unifies the ad-hoc accounting kept in
// internal/stats counters, netem link totals, and pisa resource charges.
//
// Design constraints, in order:
//
//  1. Zero overhead when disabled. Components keep a possibly-nil *Tracer
//     and guard every emission with tr.Enabled(), which is nil-safe and
//     inlines to two compares. No tracer attached means the hot paths pay
//     one predictable branch and nothing else.
//  2. Zero allocations when enabled. The tracer is a fixed-capacity ring
//     of value-typed Event records written in place; once constructed it
//     never allocates. Event name/category/argument-key fields are meant
//     to hold string constants, which cost a header copy, not an
//     allocation.
//  3. No upward imports. obs sits below internal/sim in the dependency
//     order (sim carries the tracer handle so every component can reach it
//     through its engine), so timestamps here are raw int64 nanoseconds of
//     virtual time rather than sim.Time.
//
// The trace model is a simplified Chrome trace-event timeline: complete
// spans (Ph='X', with a duration) and instants (Ph='i'). Pid selects the
// timeline lane; switches use their fabric address, and the pseudo
// components (engine, fabric) use the reserved Pid* constants.
package obs

import "sort"

// Phase bytes, matching the Chrome trace-event "ph" field.
const (
	PhaseSpan    = 'X' // complete span: TS..TS+Dur
	PhaseInstant = 'i' // point event at TS
)

// Reserved pid lanes for components that are not switches. Switch lanes use
// the switch's fabric address (a uint16), so anything >= 1<<20 is safe.
const (
	PidSim    = 1 << 20                       // the discrete-event engine itself
	PidFabric = 1<<20 + 1                     // the netem fabric
	PidCtrl   = 1<<20 + 2                     // the controller (also reachable by address)
	pidStride = 1 << 21                       // lane offset between clusters in merged exports
	_         = uint(pidStride - PidCtrl - 1) // stride must cover reserved lanes
)

// Event is one fixed-size trace record. Records live in the tracer's ring
// and are reused in place; Emit returns a pointer so the caller can fill
// the argument fields without any variadic packing, but that pointer must
// not be retained past the next Emit on the same tracer.
//
// Up to three integer arguments (K1/V1, K2/V2, K3/V3) and one string
// argument (KS/VS) are exported into the Chrome trace "args" object; an
// empty key means the slot is unused.
type Event struct {
	TS  int64  // virtual time, nanoseconds
	Dur int64  // span length in nanoseconds; 0 for instants
	Seq uint64 // emission order; tie-break for equal timestamps
	Pid int32  // timeline lane: switch address or a Pid* constant
	Ph  byte   // PhaseSpan or PhaseInstant

	Cat  string // coarse category: "sim", "net", "switch", "chain", "ewo", "ctrl"
	Name string // event name within the category

	K1 string
	V1 int64
	K2 string
	V2 int64
	K3 string
	V3 int64
	KS string
	VS string
}

// Tracer records events into a fixed-capacity ring. It is single-goroutine,
// like the simulation it observes. The zero value is unusable; a nil
// *Tracer is valid for Enabled (reporting false), which is the only method
// hot paths may call without a guard.
type Tracer struct {
	on   bool
	buf  []Event
	next uint64 // total emissions; next slot is next % len(buf)
}

// NewTracer returns an enabled tracer holding the most recent capacity
// events. Capacities below 1 are raised to 1.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{on: true, buf: make([]Event, capacity)}
}

// Enabled reports whether events should be emitted. It is safe on a nil
// receiver, so components can keep an unconditional tracer field and guard
// emissions with a single call.
func (t *Tracer) Enabled() bool { return t != nil && t.on }

// Cap returns the ring capacity.
func (t *Tracer) Cap() int { return len(t.buf) }

// Len returns the number of events currently retained.
func (t *Tracer) Len() int {
	if t.next < uint64(len(t.buf)) {
		return int(t.next)
	}
	return len(t.buf)
}

// Total returns the number of events ever emitted, including overwritten
// ones.
func (t *Tracer) Total() uint64 { return t.next }

// Emit claims the next ring slot, stamps it, and returns it for the caller
// to fill argument fields in place. The slot is fully reset, so stale
// arguments from an overwritten record never leak. Callers must check
// Enabled first: Emit on a nil or disabled tracer is a contract violation
// (nil panics; disabled still records).
func (t *Tracer) Emit(ph byte, ts, dur int64, pid int32, cat, name string) *Event {
	ev := &t.buf[t.next%uint64(len(t.buf))]
	t.next++
	*ev = Event{TS: ts, Dur: dur, Seq: t.next, Pid: pid, Ph: ph, Cat: cat, Name: name}
	return ev
}

// Instant records a point event with no arguments.
func (t *Tracer) Instant(ts int64, pid int32, cat, name string) {
	t.Emit(PhaseInstant, ts, 0, pid, cat, name)
}

// Events returns the retained events ordered by (TS, Seq). The slice is
// freshly allocated; the tracer keeps recording into its ring.
func (t *Tracer) Events() []Event {
	out := make([]Event, t.Len())
	if len(out) == 0 {
		return out
	}
	// Oldest retained record sits at next%cap once the ring has wrapped.
	start := 0
	if t.next >= uint64(len(t.buf)) {
		start = int(t.next % uint64(len(t.buf)))
	}
	for i := range out {
		out[i] = t.buf[(start+i)%len(t.buf)]
	}
	// Ring order is emission order; virtual time is monotone within a run,
	// but spans are emitted at their end, so re-sort by start time for
	// exporters, with Seq as the deterministic tie-break.
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
