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
