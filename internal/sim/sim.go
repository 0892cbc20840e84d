// Package sim implements the discrete-event simulation engine on which the
// grid substrate and the workflow enactor run.
//
// Time is virtual: a time.Duration measured from the start of the run. All
// activity is expressed as events (callbacks) scheduled at virtual instants.
// Events scheduled for the same instant execute in schedule order, which
// makes runs deterministic for a given seed.
//
// The event queue is a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan 1990),
// which fits because scheduling is monotone: nothing is scheduled before
// now. Scheduling is one slice append, whatever the instant; popping
// costs amortised O(log of the time span), with no comparisons between
// pending events and no per-instant bookkeeping. A burst — thousands of
// data-parallel completions at one virtual time — is handed to execution
// as a whole slice. Events are recycled through a free list, so
// steady-state scheduling allocates nothing. A consequence of pooling: an
// *Event pointer is only valid until its callback has run (or until a
// cancelled event is collected). Cancelling before then is always safe;
// retaining a pointer past that and cancelling later is not, because the
// engine may have reused the object for a new event.
package sim

import (
	"fmt"
	"math/bits"
	"time"
)

// Time is a virtual instant, measured as an offset from the simulation start.
type Time = time.Duration

// Event is a scheduled callback. It can be cancelled before it fires.
// Every event carries one argument-passing callback fn(arg): ScheduleArg
// and AtArg let hot paths share one static function across events instead
// of allocating a new closure per event, and Schedule/At store the plain
// closure as the argument of callFunc.
type Event struct {
	eng      *Engine
	at       Time
	fn       func(any)
	arg      any
	canceled bool
	fired    bool
}

// At returns the virtual instant this event is scheduled for.
func (e *Event) At() Time { return e.at }

// Cancel prevents the event from firing. Cancelling an event that has
// already fired (or was already cancelled) is a no-op — but see the
// package comment: the pointer must not be retained after the callback
// has run.
func (e *Event) Cancel() {
	if e.canceled || e.fired {
		return
	}
	e.canceled = true
	e.eng.live--
}

// entry is one queued event with its instant kept inline, so moving and
// scanning a slice of the queue never dereferences the event.
type entry struct {
	at Time
	ev *Event
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use: all simulated components run in event callbacks on the
// engine's (single) control flow, which is what makes runs deterministic.
type Engine struct {
	now   Time
	fired uint64
	live  int // scheduled and neither fired nor cancelled

	// The radix heap. Every queued instant is >= base, and base <= now
	// between calls. An entry at instant t sits in q[bits.Len64(t^base)]:
	// q[0] holds exactly the instant base, and q[i] the instants that
	// first differ from base at bit i-1, so every instant in q[i] is
	// smaller than every instant in q[j] for i < j. q[0] executes from
	// head. For i >= 1, used has bit i set exactly when q[i] is
	// non-empty; bit 0 is not kept, since head marks what q[0] holds.
	base Time
	q    [64][]entry
	head int
	used uint64

	freeEvents []*Event
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled and not yet fired or
// cancelled. The count is maintained on schedule/fire/cancel, so the call
// is O(1).
func (e *Engine) Pending() int { return e.live }

// Schedule arranges for fn to run after delay. A negative delay panics:
// scheduling into the past would break causality.
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// At arranges for fn to run at the absolute virtual instant t, which must
// not precede the current time.
func (e *Engine) At(t Time, fn func()) *Event {
	if fn == nil {
		panic("sim: At with nil callback")
	}
	return e.AtArg(t, callFunc, fn)
}

// callFunc adapts a plain callback to the argument-passing form. The func
// value is pointer-shaped, so boxing it in the arg slot is free.
func callFunc(arg any) { arg.(func())() }

// ScheduleArg is Schedule for argument-passing callbacks: fn(arg) runs
// after delay. Because fn can be a package-level function and arg a
// pointer, hot paths schedule without allocating a closure per event.
func (e *Engine) ScheduleArg(delay Time, fn func(any), arg any) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: ScheduleArg with negative delay %v", delay))
	}
	return e.AtArg(e.now+delay, fn, arg)
}

// AtArg is At for argument-passing callbacks: fn(arg) runs at the
// absolute virtual instant t, which must not precede the current time.
func (e *Engine) AtArg(t Time, fn func(any), arg any) *Event {
	if fn == nil {
		panic("sim: AtArg with nil callback")
	}
	ev := e.newEvent(t)
	ev.fn, ev.arg = fn, arg
	return ev
}

// newEvent pulls a recycled (or new) event, stamps its instant, and
// appends it to its radix slice — behind every earlier event of the same
// instant, which shares the slice. The caller fills in the callback.
func (e *Engine) newEvent(t Time) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%v) precedes now (%v)", t, e.now))
	}
	var ev *Event
	if n := len(e.freeEvents); n > 0 {
		ev = e.freeEvents[n-1]
		e.freeEvents[n-1] = nil
		e.freeEvents = e.freeEvents[:n-1]
		*ev = Event{eng: e, at: t}
	} else {
		ev = &Event{eng: e, at: t}
	}
	e.live++
	i := bits.Len64(uint64(t ^ e.base))
	e.q[i] = append(e.q[i], entry{t, ev})
	e.used |= 1 << i
	return ev
}

// recycle returns a consumed (fired or cancelled-and-collected) event to
// the free list.
func (e *Engine) recycle(ev *Event) {
	ev.fn, ev.arg = nil, nil
	e.freeEvents = append(e.freeEvents, ev)
}

// refill is called with q[0] drained. It takes the first non-empty slice,
// moves base to that slice's minimum instant and redistributes the slice
// relative to the new base, which puts its earliest instant into q[0].
// Moves are stable, so one instant's events keep their schedule order. A
// slice of one instant (a burst) is swapped into q[0] whole. refill
// reports false, resetting base to now, when the queue is empty.
func (e *Engine) refill() bool {
	e.q[0], e.head = e.q[0][:0], 0
	e.used &^= 1
	if e.used == 0 {
		e.base = e.now
		return false
	}
	i := bits.TrailingZeros64(e.used)
	src := e.q[i]
	lo, hi := src[0].at, src[0].at
	for _, en := range src[1:] {
		lo, hi = min(lo, en.at), max(hi, en.at)
	}
	e.base = lo
	e.used &^= 1 << i
	if lo == hi {
		e.q[0], e.q[i] = src, e.q[0]
		return true
	}
	// Every instant of src agrees with lo above bit i-1, so each lands in
	// a slice below i, and those slices are all empty here.
	for _, en := range src {
		j := bits.Len64(uint64(en.at ^ lo))
		e.q[j] = append(e.q[j], en)
		e.used |= 1 << j
	}
	e.q[i] = src[:0]
	return true
}

// peek returns the instant of the earliest pending (non-cancelled) event
// without firing it; ok is false when none remain. Cancelled events at the
// front of q[0] are collected on the way. peek never moves base: events
// scheduled after a RunUntil stop or a NextAt, at now, may precede the
// instant it reports, and they must still find their slice. So past q[0]
// it only scans the first slice that holds a live event for its minimum.
func (e *Engine) peek() (Time, bool) {
	for q := e.q[0]; e.head < len(q); e.head++ {
		ev := q[e.head].ev
		if !ev.canceled {
			return e.base, true
		}
		e.recycle(ev)
	}
	for used := e.used &^ 1; used != 0; used &= used - 1 {
		var lo Time
		ok := false
		for _, en := range e.q[bits.TrailingZeros64(used)] {
			if !en.ev.canceled && (!ok || en.at < lo) {
				lo, ok = en.at, true
			}
		}
		if ok {
			return lo, true
		}
	}
	return 0, false
}

// Step fires the next pending event, advancing the clock to its instant.
// It reports whether an event fired (false means the queue was empty).
func (e *Engine) Step() bool {
	for {
		if e.head == len(e.q[0]) && !e.refill() {
			return false
		}
		ev := e.q[0][e.head].ev
		e.head++
		if ev.canceled {
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		e.fired++
		e.live--
		ev.fired = true
		fn, arg := ev.fn, ev.arg
		fn(arg)
		e.recycle(ev)
		return true
	}
}

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with instants <= t, then advances the clock to t.
func (e *Engine) RunUntil(t Time) {
	for {
		at, ok := e.peek()
		if !ok || at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// NextAt returns the instant of the earliest pending (non-cancelled)
// event. ok is false when no events remain. The clock does not advance
// and nothing is committed to execution, so events scheduled afterwards
// for earlier instants still fire in order.
func (e *Engine) NextAt() (t Time, ok bool) { return e.peek() }
