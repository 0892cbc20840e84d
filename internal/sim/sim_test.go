package sim

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine clock = %v, want 0", e.Now())
	}
}

func TestScheduleAdvancesClock(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(5*time.Second, func() { at = e.Now() })
	e.Run()
	if at != 5*time.Second {
		t.Fatalf("event fired at %v, want 5s", at)
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("clock after run = %v, want 5s", e.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3*time.Second, func() { order = append(order, 3) })
	e.Schedule(1*time.Second, func() { order = append(order, 1) })
	e.Schedule(2*time.Second, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired in order %v, want [1 2 3]", order)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired in order %v, want schedule order", order)
		}
	}

	// Closure and argument-passing events share one queue: interleaved at
	// one instant, through every scheduling entry point, they still fire
	// in schedule order.
	e = NewEngine()
	order = order[:0]
	record := func(x any) { order = append(order, x.(int)) }
	for i := 0; i < 12; i++ {
		i := i
		switch i % 4 {
		case 0:
			e.Schedule(time.Second, func() { order = append(order, i) })
		case 1:
			e.ScheduleArg(time.Second, record, i)
		case 2:
			e.At(time.Second, func() { order = append(order, i) })
		case 3:
			e.AtArg(time.Second, record, i)
		}
	}
	e.Run()
	if len(order) != 12 {
		t.Fatalf("%d of 12 mixed same-instant events fired", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed same-instant events fired in order %v, want schedule order", order)
		}
	}
}

// TestScheduleStepAllocFree pins the engine's steady-state allocation
// contract for both event forms: once the event free list and the queue
// slices are warm, scheduling a preallocated closure (Schedule) or a
// static function plus pointer argument (ScheduleArg) and firing it
// allocates nothing.
func TestScheduleStepAllocFree(t *testing.T) {
	e := NewEngine()
	n := 0
	fn := func() { n++ }
	argFn := func(x any) { *x.(*int)++ }
	e.Schedule(time.Second, fn)
	e.Step()
	if avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(time.Second, fn)
		e.Step()
	}); avg != 0 {
		t.Fatalf("warm Schedule+Step allocates %.1f objects per event, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleArg(time.Second, argFn, &n)
		e.Step()
	}); avg != 0 {
		t.Fatalf("warm ScheduleArg+Step allocates %.1f objects per event, want 0", avg)
	}
	if n != 1+2*1001 {
		t.Fatalf("%d callbacks ran, want %d", n, 1+2*1001)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var finished Time
	e.Schedule(time.Second, func() {
		e.Schedule(2*time.Second, func() {
			finished = e.Now()
		})
	})
	e.Run()
	if finished != 3*time.Second {
		t.Fatalf("nested event fired at %v, want 3s", finished)
	}
}

func TestZeroDelayFiresAtCurrentInstant(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(time.Second, func() {
		e.Schedule(0, func() { at = e.Now() })
	})
	e.Run()
	if at != time.Second {
		t.Fatalf("zero-delay event fired at %v, want 1s", at)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(-1) did not panic")
		}
	}()
	NewEngine().Schedule(-time.Second, func() {})
}

func TestAtInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		e.At(0, func() {})
	})
	e.Run()
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	NewEngine().Schedule(0, nil)
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired() = %d after cancelled run, want 0", e.Fired())
	}
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(1*time.Second, func() { order = append(order, 1) })
	ev := e.Schedule(2*time.Second, func() { order = append(order, 2) })
	e.Schedule(3*time.Second, func() { order = append(order, 3) })
	ev.Cancel()
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("order = %v, want [1 3]", order)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{time.Second, 2 * time.Second, 5 * time.Second} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(3 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(3s) fired %d events, want 2", len(fired))
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("clock = %v after RunUntil(3s)", e.Now())
	}
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("Run after RunUntil fired %d total, want 3", len(fired))
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(3*time.Second, func() { fired = true })
	e.RunUntil(3 * time.Second)
	if !fired {
		t.Fatal("RunUntil(t) did not fire an event scheduled exactly at t")
	}
}

func TestPendingExcludesCancelled(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {})
	ev := e.Schedule(2*time.Second, func() {})
	ev.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
}

func TestEventAt(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(7*time.Second, func() {})
	if ev.At() != 7*time.Second {
		t.Fatalf("Event.At() = %v, want 7s", ev.At())
	}
}

// Property: regardless of schedule order, events fire in non-decreasing time
// order and the clock never goes backwards.
func TestQuickTimeOrdering(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := rng.New(seed)
		e := NewEngine()
		count := int(n%50) + 1
		delays := make([]Time, count)
		for i := range delays {
			delays[i] = Time(r.Intn(1000)) * time.Millisecond
		}
		var fired []Time
		for _, d := range delays {
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != count {
			return false
		}
		sorted := append([]Time(nil), delays...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestResourceImmediateGrant(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	granted := 0
	r.Acquire(func() { granted++ })
	r.Acquire(func() { granted++ })
	if granted != 2 {
		t.Fatalf("granted = %d, want 2 immediate grants", granted)
	}
	if r.Busy() != 2 {
		t.Fatalf("Busy() = %d, want 2", r.Busy())
	}
}

func TestResourceQueuesBeyondCapacity(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var order []int
	r.Use(time.Second, func() { order = append(order, 1) })
	r.Use(time.Second, func() { order = append(order, 2) })
	r.Use(time.Second, func() { order = append(order, 3) })
	if r.Waiting() != 2 {
		t.Fatalf("Waiting() = %d, want 2", r.Waiting())
	}
	e.Run()
	if e.Now() != 3*time.Second {
		t.Fatalf("serialized holds finished at %v, want 3s", e.Now())
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("FIFO order violated: %v", order)
		}
	}

	// 10 000 waiters at one instant on 4 slots: the wait queue rewinds
	// and compacts as it drains, and must grant in arrival order with
	// Waiting and PeakWaiting exact throughout.
	const n, slots = 10000, 4
	e = NewEngine()
	r = NewResource(e, slots)
	order = order[:0]
	for i := 0; i < n; i++ {
		r.Use(time.Second, func() {
			order = append(order, i)
			if want := max(n-slots-len(order), 0); r.Waiting() != want {
				t.Fatalf("after %d holds Waiting() = %d, want %d", len(order), r.Waiting(), want)
			}
		})
	}
	e.Run()
	if len(order) != n || r.PeakWaiting() != n-slots || r.Waiting() != 0 {
		t.Fatalf("%d holds done, PeakWaiting %d, Waiting %d; want %d, %d, 0",
			len(order), r.PeakWaiting(), r.Waiting(), n, n-slots)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("grant %d went to waiter %d, want FIFO", i, v)
		}
	}
}

// BenchmarkResourceDrain times 10 000 acquisitions at one instant on a
// 4-slot resource: 9 996 of them queue, and the releases drain the queue.
func BenchmarkResourceDrain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		r := NewResource(e, 4)
		for j := 0; j < 10000; j++ {
			r.Use(time.Second, nil)
		}
		e.Run()
	}
}

func TestResourceParallelHolds(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 3)
	done := 0
	for i := 0; i < 3; i++ {
		r.Use(time.Second, func() { done++ })
	}
	e.Run()
	if e.Now() != time.Second {
		t.Fatalf("3 parallel holds on capacity 3 finished at %v, want 1s", e.Now())
	}
	if done != 3 {
		t.Fatalf("done = %d, want 3", done)
	}
}

func TestResourceReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Acquire did not panic")
		}
	}()
	NewResource(NewEngine(), 1).Release()
}

func TestResourceZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewResource(0) did not panic")
		}
	}()
	NewResource(NewEngine(), 0)
}

func TestResourceStats(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	for i := 0; i < 5; i++ {
		r.Use(time.Second, nil)
	}
	e.Run()
	if r.PeakBusy() != 2 {
		t.Errorf("PeakBusy = %d, want 2", r.PeakBusy())
	}
	if r.PeakWaiting() != 3 {
		t.Errorf("PeakWaiting = %d, want 3", r.PeakWaiting())
	}
	if r.Grants() != 5 {
		t.Errorf("Grants = %d, want 5", r.Grants())
	}
	if r.Busy() != 0 {
		t.Errorf("Busy after drain = %d, want 0", r.Busy())
	}
}

// Property: with capacity c and n unit holds, the makespan is
// ceil(n/c) time units and the resource never exceeds its capacity.
func TestQuickResourceMakespan(t *testing.T) {
	f := func(nRaw, cRaw uint8) bool {
		n := int(nRaw%40) + 1
		c := int(cRaw%8) + 1
		e := NewEngine()
		r := NewResource(e, c)
		for i := 0; i < n; i++ {
			r.Use(time.Second, nil)
		}
		e.Run()
		want := Time((n+c-1)/c) * time.Second
		return e.Now() == want && r.PeakBusy() <= c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPendingLiveCounter walks the counter through schedule, cancel and
// fire transitions: Pending must track live events exactly (it is O(1) now,
// maintained rather than recounted).
func TestPendingLiveCounter(t *testing.T) {
	e := NewEngine()
	evs := make([]*Event, 6)
	for i := range evs {
		evs[i] = e.Schedule(Time(i+1)*time.Second, func() {})
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending after 6 schedules = %d", e.Pending())
	}
	evs[1].Cancel()
	evs[4].Cancel()
	if e.Pending() != 4 {
		t.Fatalf("Pending after 2 cancels = %d", e.Pending())
	}
	evs[1].Cancel() // double cancel must not double-decrement
	if e.Pending() != 4 {
		t.Fatalf("Pending after double cancel = %d", e.Pending())
	}
	e.RunUntil(3 * time.Second) // fires events at 1s and 3s (2s cancelled)
	if e.Pending() != 2 {
		t.Fatalf("Pending after RunUntil(3s) = %d", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after Run = %d", e.Pending())
	}
	if e.Fired() != 4 {
		t.Fatalf("Fired = %d, want 4", e.Fired())
	}
}

// TestRunUntilCancelledHead checks the peek loop: cancelled events at the
// front of the queue must be collected without firing and without
// advancing the clock past t.
func TestRunUntilCancelledHead(t *testing.T) {
	e := NewEngine()
	var fired []Time
	first := e.Schedule(1*time.Second, func() { fired = append(fired, 1) })
	e.Schedule(2*time.Second, func() { fired = append(fired, 2) })
	late := e.Schedule(4*time.Second, func() { fired = append(fired, 4) })
	first.Cancel()
	late.Cancel()
	e.RunUntil(3 * time.Second)
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("fired = %v, want just the 2s event", fired)
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("clock = %v after RunUntil(3s)", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after all live events fired", e.Pending())
	}
	e.Run()
	if len(fired) != 1 {
		t.Fatalf("cancelled 4s event fired: %v", fired)
	}
}

// TestCancelWithinSameInstantBatch cancels an event from an earlier event
// of the same virtual instant — the cancelled one is already out of the
// priority queue, sitting in the executing batch, and must still not fire.
func TestCancelWithinSameInstantBatch(t *testing.T) {
	e := NewEngine()
	var order []int
	var second *Event
	e.Schedule(time.Second, func() {
		order = append(order, 1)
		second.Cancel()
	})
	second = e.Schedule(time.Second, func() { order = append(order, 2) })
	e.Schedule(time.Second, func() { order = append(order, 3) })
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("order = %v, want [1 3]", order)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after run", e.Pending())
	}
}

// TestSameInstantNestedOrdering checks that events scheduled *during* a
// same-instant batch run after everything already scheduled for that
// instant, preserving global schedule order across the batch boundary.
func TestSameInstantNestedOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(time.Second, func() {
		order = append(order, 1)
		e.Schedule(0, func() { order = append(order, 3) })
	})
	e.Schedule(time.Second, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

// TestEventPoolReuse checks the free-list contract: cancelling an event
// after it fired is a no-op (and keeps the live counter intact), and
// recycled events behave like fresh ones.
func TestEventPoolReuse(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(time.Second, func() {})
	e.Run()
	ev.Cancel() // fired already: must be a no-op
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after post-fire Cancel", e.Pending())
	}
	fired := 0
	for i := 0; i < 100; i++ { // drive the pool through many reuse cycles
		e.Schedule(time.Second, func() { fired++ })
		e.Schedule(time.Second, func() { fired++ }).Cancel()
		e.Run()
	}
	if fired != 100 {
		t.Fatalf("fired = %d, want 100", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after reuse cycles", e.Pending())
	}
}

// TestRunUntilThenAt exercises the batch/heap boundary: after RunUntil
// stops mid-queue, scheduling at the stop instant and running must fire
// the new event after the remaining older ones of that instant.
func TestRunUntilThenAt(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(time.Second, func() { order = append(order, 1) })
	e.Schedule(2*time.Second, func() { order = append(order, 2) })
	e.RunUntil(time.Second)
	ev := e.At(2*time.Second, func() { order = append(order, 3) })
	if ev.At() != 2*time.Second {
		t.Fatalf("At() = %v", ev.At())
	}
	e.Run()
	if len(order) != 3 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

// TestRunUntilThenEarlierSchedule pins a peek regression: stopping at t
// must not commit a later bucket to execution — an event scheduled
// afterwards at an earlier instant has to fire first, and the clock must
// never run backwards.
func TestRunUntilThenEarlierSchedule(t *testing.T) {
	e := NewEngine()
	var order []int
	var clocks []Time
	e.Schedule(1*time.Second, func() { order = append(order, 1); clocks = append(clocks, e.Now()) })
	e.Schedule(3*time.Second, func() { order = append(order, 3); clocks = append(clocks, e.Now()) })
	e.RunUntil(1 * time.Second) // fires the 1s event; 3s stays pending
	e.Schedule(1*time.Second, func() { order = append(order, 2); clocks = append(clocks, e.Now()) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	for i := 1; i < len(clocks); i++ {
		if clocks[i] < clocks[i-1] {
			t.Fatalf("clock ran backwards: %v", clocks)
		}
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("final clock = %v, want 3s", e.Now())
	}
}

// TestRunUntilAllCancelledBucket checks peek retires a bucket whose every
// event was cancelled without firing anything or disturbing later ones.
func TestRunUntilAllCancelledBucket(t *testing.T) {
	e := NewEngine()
	fired := false
	a := e.Schedule(1*time.Second, func() {})
	b := e.Schedule(1*time.Second, func() {})
	e.Schedule(2*time.Second, func() { fired = true })
	a.Cancel()
	b.Cancel()
	e.RunUntil(90 * time.Minute)
	if !fired {
		t.Fatal("2s event did not fire past an all-cancelled earlier bucket")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d", e.Pending())
	}
}

// TestResourceReleaseRacesSameInstantAcquire pins the grant order when a
// Release and a fresh Acquire land in the same virtual instant: the
// queued waiter (FIFO head) gets the freed slot, and the same-instant
// newcomer queues behind it — in both event orderings (release fires
// before the new acquire, and after it).
func TestResourceReleaseRacesSameInstantAcquire(t *testing.T) {
	for _, acquireFirst := range []bool{false, true} {
		e := NewEngine()
		r := NewResource(e, 1)
		var order []string
		r.Acquire(func() {}) // holder; released at 1s below
		r.Acquire(func() { order = append(order, "waiter") })

		release := func() { r.Release() }
		newcomer := func() {
			r.Acquire(func() {
				order = append(order, "newcomer")
				// Hold through the instant so the grant order is observable.
				e.Schedule(time.Second, func() { r.Release() })
			})
		}
		if acquireFirst {
			e.Schedule(time.Second, newcomer)
			e.Schedule(time.Second, release)
		} else {
			e.Schedule(time.Second, release)
			e.Schedule(time.Second, newcomer)
		}
		// Free the waiter's slot so the newcomer eventually runs.
		e.Schedule(2*time.Second, func() { r.Release() })
		e.Run()
		if len(order) != 2 || order[0] != "waiter" || order[1] != "newcomer" {
			t.Errorf("acquireFirst=%v: grant order %v, want [waiter newcomer]", acquireFirst, order)
		}
		if r.Busy() != 0 || r.Waiting() != 0 {
			t.Errorf("acquireFirst=%v: busy=%d waiting=%d after drain", acquireFirst, r.Busy(), r.Waiting())
		}
	}
}

// TestResourcePeakStatsBatchedSameBucket pins PeakWaiting and Grants when
// every acquisition arrives in one same-instant bucket: the queue peaks
// at n−capacity before any release, every request is eventually granted
// exactly once, and the makespan is the ceiling bound.
func TestResourcePeakStatsBatchedSameBucket(t *testing.T) {
	const n, capacity = 9, 2
	e := NewEngine()
	r := NewResource(e, capacity)
	done := 0
	for i := 0; i < n; i++ {
		e.Schedule(time.Second, func() {
			r.Use(time.Second, func() { done++ })
		})
	}
	e.Run()
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	if r.PeakWaiting() != n-capacity {
		t.Errorf("PeakWaiting = %d, want %d (whole batch queued before the first release)", r.PeakWaiting(), n-capacity)
	}
	if r.Grants() != n {
		t.Errorf("Grants = %d, want %d", r.Grants(), n)
	}
	if r.PeakBusy() != capacity {
		t.Errorf("PeakBusy = %d, want %d", r.PeakBusy(), capacity)
	}
	// 1s of arrival + ceil(9/2) rounds of 1s holds.
	if want := time.Second + Time((n+capacity-1)/capacity)*time.Second; e.Now() != want {
		t.Errorf("makespan = %v, want %v", e.Now(), want)
	}
}

// TestUseWaitReportsQueueTime pins the UseWaitArg contract: the callback
// receives its argument and exactly the time spent queued before the
// grant (zero for the immediate grant), and the holds still serialize
// FIFO.
func TestUseWaitReportsQueueTime(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	type hold struct {
		id     int
		waited Time
	}
	var got []hold
	record := func(arg any, w Time) { got = append(got, hold{arg.(int), w}) }
	for i := 0; i < 3; i++ {
		r.UseWaitArg(time.Second, record, i)
	}
	if r.Waiting() != 2 {
		t.Fatalf("Waiting = %d, want 2", r.Waiting())
	}
	e.Run()
	want := []hold{{0, 0}, {1, time.Second}, {2, 2 * time.Second}}
	if len(got) != len(want) {
		t.Fatalf("holds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("hold %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// A nil done must not crash the release path.
	r.UseWaitArg(time.Second, nil, nil)
	e.Run()
	if r.Busy() != 0 {
		t.Errorf("Busy = %d after nil-done UseWaitArg drained", r.Busy())
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j)*time.Millisecond, func() {})
		}
		e.Run()
	}
}
