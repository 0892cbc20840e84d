package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/rng"
)

// modelEvent is one pending event of the reference queue. child >= 0 is
// the delay of the event its callback schedules when it fires (id
// childID(id)); cancellable is false for events injected through an
// Inbox, whose *Event the caller never sees.
type modelEvent struct {
	id          int
	at, child   Time
	cancellable bool
}

// childID is the id of the child event that event id schedules; parent
// ids stay far below it.
func childID(id int) int { return id + 1_000_000 }

// queueModel is the reference the engine is checked against: pending
// events in schedule order, fired by a stable sort on their instant.
type queueModel struct {
	now     Time
	pending []modelEvent
	fired   []int
}

func (m *queueModel) sorted() []modelEvent {
	s := slices.Clone(m.pending)
	slices.SortStableFunc(s, func(a, b modelEvent) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		}
		return 0
	})
	return s
}

func (m *queueModel) nextAt() (Time, bool) {
	if len(m.pending) == 0 {
		return 0, false
	}
	return m.sorted()[0].at, true
}

func (m *queueModel) step() {
	first := m.sorted()[0]
	m.pending = slices.DeleteFunc(m.pending, func(x modelEvent) bool { return x.id == first.id })
	m.now = first.at
	m.fired = append(m.fired, first.id)
	if first.child >= 0 {
		m.pending = append(m.pending, modelEvent{id: childID(first.id), at: m.now + first.child, child: -1, cancellable: true})
	}
}

// queueRig drives an engine and the model side by side.
type queueRig struct {
	t      *testing.T
	eng    *Engine
	inbox  Inbox
	m      queueModel
	fired  []int
	live   map[int]*Event // cancellable pending events by id
	nextID int
	lastAt Time
}

// fire is the engine-side callback of event id: it records the firing
// and schedules the event's child, as the model does.
func (r *queueRig) fire(id int, child Time) {
	r.fired = append(r.fired, id)
	delete(r.live, id)
	if child >= 0 {
		cid := childID(id)
		r.live[cid] = r.eng.Schedule(child, func() { r.fire(cid, -1) })
	}
}

func (r *queueRig) schedule(at, child Time) {
	id := r.nextID
	r.nextID++
	r.m.pending = append(r.m.pending, modelEvent{id: id, at: at, child: child, cancellable: true})
	r.live[id] = r.eng.At(at, func() { r.fire(id, child) })
	r.lastAt = at
}

// delay draws from the menu the queue must handle: zero, small, and
// powers of two up to 1<<62, clamped so now+delay stays a valid Time.
func (r *queueRig) delay(src *rng.Source) Time {
	var d Time
	switch src.Intn(3) {
	case 0:
	case 1:
		d = Time(1 + src.Intn(50))
	default:
		d = Time(1) << src.Intn(63)
	}
	return min(d, math.MaxInt64-r.eng.Now())
}

func (r *queueRig) check(op int, what string) {
	r.t.Helper()
	m := &r.m
	if !slices.Equal(r.fired, m.fired) {
		r.t.Fatalf("op %d (%s): fired %v, want %v", op, what, r.fired, m.fired)
	}
	if r.eng.Now() != m.now {
		r.t.Fatalf("op %d (%s): Now() = %d, want %d", op, what, r.eng.Now(), m.now)
	}
	if r.eng.Pending() != len(m.pending) {
		r.t.Fatalf("op %d (%s): Pending() = %d, want %d", op, what, r.eng.Pending(), len(m.pending))
	}
	at, ok := r.eng.NextAt()
	wantAt, wantOK := m.nextAt()
	if at != wantAt || ok != wantOK {
		r.t.Fatalf("op %d (%s): NextAt() = %d, %v, want %d, %v", op, what, at, ok, wantAt, wantOK)
	}
}

// TestQueueRandomized checks the engine's queue against the reference
// model over random interleavings of every operation that touches it:
// schedules at now, at a repeated instant, a little later and up to 1<<62
// later, some of whose callbacks schedule a child; cancels; Step and
// RunUntil; NextAt followed by a schedule at now (the daemon's pattern);
// and Inbox drains. After every operation the fired sequence, the clock,
// Pending and NextAt must equal the model's.
func TestQueueRandomized(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			src := rng.New(seed)
			r := &queueRig{t: t, eng: NewEngine(), live: make(map[int]*Event)}
			for op := 0; op < 3000; op++ {
				var what string
				switch k := src.Intn(10); {
				case k < 4:
					what = "schedule"
					at := r.eng.Now() + r.delay(src)
					if src.Intn(4) == 0 && r.lastAt >= r.eng.Now() {
						at = r.lastAt
					}
					child := Time(-1)
					if src.Intn(3) == 0 {
						child = r.delay(src)
						at = min(at, math.MaxInt64-child)
					}
					r.schedule(at, child)
				case k == 4:
					what = "cancel"
					var ids []int
					for _, x := range r.m.pending {
						if x.cancellable {
							ids = append(ids, x.id)
						}
					}
					if len(ids) == 0 {
						break
					}
					id := ids[src.Intn(len(ids))]
					r.live[id].Cancel()
					delete(r.live, id)
					r.m.pending = slices.DeleteFunc(r.m.pending, func(x modelEvent) bool { return x.id == id })
				case k < 7:
					what = "step"
					if r.eng.Step() != (len(r.m.pending) > 0) {
						t.Fatalf("op %d: Step disagrees on an empty queue", op)
					}
					if len(r.m.pending) > 0 {
						r.m.step()
					}
				case k == 7:
					what = "run-until"
					until := r.eng.Now() + r.delay(src)
					r.eng.RunUntil(until)
					for {
						at, ok := r.m.nextAt()
						if !ok || at > until {
							break
						}
						r.m.step()
					}
					r.m.now = max(r.m.now, until)
				case k == 8:
					what = "next-at+schedule-now"
					r.eng.NextAt()
					r.schedule(r.eng.Now(), -1)
				default:
					what = "inbox-drain"
					for n := src.Intn(4); n > 0; n-- {
						id := r.nextID
						r.nextID++
						r.m.pending = append(r.m.pending, modelEvent{id: id, at: r.eng.Now(), child: -1})
						r.inbox.Post(func() { r.fire(id, -1) })
					}
					r.inbox.Drain(r.eng)
				}
				r.check(op, what)
			}
			r.eng.Run()
			for len(r.m.pending) > 0 {
				r.m.step()
			}
			r.check(-1, "run")
		})
	}
}

// queueLoop is the engine micro loop of the benchmark module's layer
// timings: rounds of batch events scheduled at at(i), each round run dry.
// It returns the number of events it fired.
func queueLoop(at func(i int) Time) int {
	const batch, rounds = 4096, 16
	eng := NewEngine()
	n := 0
	fn := func() { n++ }
	for r := 0; r < rounds; r++ {
		for i := 0; i < batch; i++ {
			eng.Schedule(at(i), fn)
		}
		eng.Run()
	}
	return n
}

func burstAt(int) Time    { return time.Second }
func spreadAt(i int) Time { return Time(i+1) * time.Millisecond }

func benchQueue(b *testing.B, at func(i int) Time) {
	events := 0
	for i := 0; i < b.N; i++ {
		events += queueLoop(at)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkQueue times the engine on bursts (every event of a round at
// one instant) and on spread rounds (every event at an instant of its
// own).
func BenchmarkQueue(b *testing.B) {
	b.Run("burst", func(b *testing.B) { benchQueue(b, burstAt) })
	b.Run("spread", func(b *testing.B) { benchQueue(b, spreadAt) })
}

// TestQueueSpreadCost pins that an event at an instant of its own costs
// at most 4x an event of a burst (a heap of per-instant buckets cost
// about 10x). A timing comparison is at the mercy of other load on the
// machine, so a ratio over the limit is measured again, up to three times
// in all.
func TestQueueSpreadCost(t *testing.T) {
	var burst, spread testing.BenchmarkResult
	for attempt := 0; attempt < 3; attempt++ {
		burst = testing.Benchmark(func(b *testing.B) { benchQueue(b, burstAt) })
		spread = testing.Benchmark(func(b *testing.B) { benchQueue(b, spreadAt) })
		if burst.N == 0 || spread.N == 0 {
			t.Fatal("benchmark did not run")
		}
		if spread.Extra["ns/event"] <= 4*burst.Extra["ns/event"] {
			return
		}
	}
	t.Fatalf("an event costs %.0f ns spread and %.0f ns in a burst (limit 4x)",
		spread.Extra["ns/event"], burst.Extra["ns/event"])
}
