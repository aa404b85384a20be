package sim

import (
	"testing"
)

// TestBatchSameTimestampOrdering: a batch drain must still interleave
// correctly with events a callback schedules AT the current timestamp —
// local (khi==0) events sort before keyed deliveries at equal times, so the
// batch loop must re-consult the heap after every dispatch rather than
// pre-draining the run.
func TestBatchSameTimestampOrdering(t *testing.T) {
	eng := NewEngine(1)
	var got []string
	eng.ScheduleKeyed(10, KeyClassDeliver|1, 0, func() { got = append(got, "d0") })
	eng.ScheduleKeyed(10, KeyClassDeliver|1, 1, func() { got = append(got, "d1") })
	eng.Schedule(10, func() {
		got = append(got, "local")
		// Scheduled mid-batch at the current timestamp: a local event must
		// run before the already-queued keyed deliveries.
		eng.Schedule(10, func() { got = append(got, "local2") })
	})
	eng.Run()
	want := []string{"local", "local2", "d0", "d1"}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestBatchStopMidBatch: Stop inside a same-timestamp run halts the batch
// immediately; later events at the same timestamp stay queued.
func TestBatchStopMidBatch(t *testing.T) {
	eng := NewEngine(1)
	ran := 0
	for i := 0; i < 5; i++ {
		i := i
		eng.ScheduleKeyed(10, KeyClassDeliver|1, uint64(i), func() {
			ran++
			if i == 1 {
				eng.Stop()
			}
		})
	}
	eng.Run()
	if ran != 2 {
		t.Fatalf("ran %d events after mid-batch Stop, want 2", ran)
	}
	if eng.Pending() != 3 {
		t.Fatalf("pending = %d after Stop, want 3", eng.Pending())
	}
	if eng.Processed() != 2 {
		t.Fatalf("processed = %d, want 2", eng.Processed())
	}
}

// TestRunUntilStopKeepsClock: a RunUntil that Stop ends early, with events
// before the deadline still queued, must leave the clock on the last event it
// ran. Jumping to the deadline made the next run step the clock backwards and
// made a schedule in between — legal against the queued work — panic "before
// now".
func TestRunUntilStopKeepsClock(t *testing.T) {
	eng := NewEngine(1)
	var got []Time
	rec := func() { got = append(got, eng.Now()) }
	eng.Schedule(10, func() { rec(); eng.Stop() })
	eng.Schedule(20, rec)
	if n := eng.RunUntil(100); n != 1 || eng.Now() != 10 {
		t.Fatalf("stopped run: processed %d, clock %v; want 1 event and clock 10", n, eng.Now())
	}
	eng.Schedule(15, rec)
	if n := eng.RunUntil(100); n != 2 || eng.Now() != 100 {
		t.Fatalf("resumed run: processed %d, clock %v; want 2 events and clock 100", n, eng.Now())
	}
	if want := []Time{10, 15, 20}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("events ran at %v, want %v", got, want)
	}
	// Stopped with nothing left before the deadline: the clock does reach it.
	eng.Schedule(110, func() { eng.Stop() })
	eng.Schedule(300, rec)
	if eng.RunUntil(200); eng.Now() != 200 {
		t.Fatalf("clock %v after a stop with nothing due, want 200", eng.Now())
	}
}

// TestBatchProcessedCount: the per-batch counter fold must equal one per
// dispatched event across mixed timestamps.
func TestBatchProcessedCount(t *testing.T) {
	eng := NewEngine(1)
	total := 0
	for _, at := range []Time{5, 5, 5, 9, 9, 12} {
		eng.Schedule(at, func() { total++ })
	}
	if n := eng.Run(); n != 6 || total != 6 || eng.Processed() != 6 {
		t.Fatalf("Run=%d total=%d Processed=%d, want 6 each", n, total, eng.Processed())
	}
	if eng.Now() != 12 {
		t.Fatalf("clock = %v, want 12", eng.Now())
	}
}

// TestBatchDispatchAllocBudget: draining a warm same-timestamp batch
// allocates nothing — the batch loop is pops, pooled releases, and one
// counter fold.
func TestBatchDispatchAllocBudget(t *testing.T) {
	eng := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		eng.ScheduleAfter(1, fn)
	}
	eng.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		at := eng.Now().Add(1)
		for i := 0; i < 16; i++ {
			eng.Schedule(at, fn)
		}
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("batched dispatch allocates %v per run, want 0", allocs)
	}
}

// TestCreditEvents pins the accounting hook the burst layer uses to keep
// coalesced runs indistinguishable from per-message events.
func TestCreditEvents(t *testing.T) {
	eng := NewEngine(1)
	eng.Schedule(1, func() { eng.CreditEvents(4) })
	eng.Run()
	if got := eng.Processed(); got != 5 {
		t.Fatalf("processed = %d, want 5 (1 real + 4 credited)", got)
	}
}
