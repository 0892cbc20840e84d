package sim

// Resource is a capacity-limited server with a FIFO wait queue. It is the
// building block for worker nodes, network links, and the serialized grid
// submission interface.
//
// A caller acquires a slot with Acquire; when a slot is granted the supplied
// callback runs (in virtual time). The holder must call Release exactly once
// when done. For the common hold-for-a-duration pattern, Use wraps
// Acquire/Schedule/Release.
//
// The Arg variants (AcquireArg, UseWaitArg) mirror Engine.ScheduleArg:
// callers pass a static function plus a pointer-shaped argument instead of
// a fresh closure, and the hold-for-a-duration machinery recycles its
// per-hold bookkeeping through a free list, so steady-state resource use
// allocates nothing.
type Resource struct {
	eng       *Engine
	capacity  int
	busy      int
	queue     []waiter // waiting from head on
	head      int
	peakBusy  int
	peakWait  int
	grants    uint64
	freeHolds []*hold
}

// waiter is one queued acquisition: a static function plus argument
// (Acquire stores its plain callback as the argument of callFunc).
type waiter struct {
	fn  func(any)
	arg any
}

// hold is the recycled bookkeeping of one Use/UseWaitArg hold: the slot wait
// start, the hold duration, and the completion callback. It cycles
// acquire → schedule → release through package-level functions, so the
// whole hold costs zero allocations once the resource's free list is warm.
type hold struct {
	r      *Resource
	start  Time
	waited Time
	d      Time
	done   func(any, Time)
	arg    any
}

// NewResource returns a resource with the given number of slots on the
// engine. Capacity must be positive.
func NewResource(eng *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: NewResource with non-positive capacity")
	}
	return &Resource{eng: eng, capacity: capacity}
}

// Capacity returns the total number of slots.
func (r *Resource) Capacity() int { return r.capacity }

// Busy returns the number of currently held slots.
func (r *Resource) Busy() int { return r.busy }

// Waiting returns the number of queued acquisition requests.
func (r *Resource) Waiting() int { return len(r.queue) - r.head }

// PeakBusy returns the maximum number of simultaneously held slots observed.
func (r *Resource) PeakBusy() int { return r.peakBusy }

// PeakWaiting returns the maximum observed queue length.
func (r *Resource) PeakWaiting() int { return r.peakWait }

// Grants returns how many acquisitions have been granted so far.
func (r *Resource) Grants() uint64 { return r.grants }

// Acquire requests a slot. granted runs as soon as a slot is available
// (immediately, in the current event, if one is free). The holder must call
// Release exactly once afterwards.
func (r *Resource) Acquire(granted func()) {
	if granted == nil {
		panic("sim: Acquire with nil callback")
	}
	r.acquire(waiter{fn: callFunc, arg: granted})
}

// AcquireArg is Acquire for argument-passing callbacks: granted(arg) runs
// as soon as a slot is available. The holder must call Release exactly
// once afterwards.
func (r *Resource) AcquireArg(granted func(any), arg any) {
	if granted == nil {
		panic("sim: AcquireArg with nil callback")
	}
	r.acquire(waiter{fn: granted, arg: arg})
}

func (r *Resource) acquire(w waiter) {
	if r.busy < r.capacity {
		r.grant(w)
		return
	}
	r.queue = append(r.queue, w)
	r.peakWait = max(r.peakWait, r.Waiting())
}

func (r *Resource) grant(w waiter) {
	r.busy++
	r.grants++
	if r.busy > r.peakBusy {
		r.peakBusy = r.busy
	}
	w.fn(w.arg)
}

// Release returns a slot. If requests are queued, the oldest one is granted
// within the same virtual instant.
func (r *Resource) Release() {
	if r.busy <= 0 {
		panic("sim: Release without matching Acquire")
	}
	r.busy--
	if r.head == len(r.queue) {
		return
	}
	next := r.queue[r.head]
	r.queue[r.head] = waiter{}
	r.head++
	// Grants advance a head index, so draining n waiters is O(n). The
	// queue rewinds when it empties and compacts once the head passes
	// half of it, which keeps the copies amortised O(1) per grant.
	if r.head == len(r.queue) {
		r.queue, r.head = r.queue[:0], 0
	} else if r.head > len(r.queue)/2 {
		n := copy(r.queue, r.queue[r.head:])
		clear(r.queue[n:])
		r.queue, r.head = r.queue[:n], 0
	}
	r.grant(next)
}

// Use acquires a slot, holds it for d, then releases it and calls done
// (which may be nil). It is the hold-for-a-duration convenience wrapper.
func (r *Resource) Use(d Time, done func()) {
	if done == nil {
		r.UseWaitArg(d, nil, nil)
		return
	}
	r.UseWaitArg(d, useDone, done)
}

// useDone adapts a Use completion callback to the UseWaitArg shape. The
// func value is pointer-shaped, so boxing it in the arg slot is free.
func useDone(arg any, _ Time) { arg.(func())() }

// UseWaitArg acquires a slot, holds it for d, releases it, and calls
// done(arg, waited) — done may be nil — where waited is the virtual time
// the request spent queued before the grant (zero when a slot was free).
// Contended transfer channels build on it to account congestion apart
// from the transfer itself. Holds are recycled through the resource's
// free list, so a warm hold allocates nothing.
func (r *Resource) UseWaitArg(d Time, done func(any, Time), arg any) {
	var h *hold
	if n := len(r.freeHolds); n > 0 {
		h = r.freeHolds[n-1]
		r.freeHolds[n-1] = nil
		r.freeHolds = r.freeHolds[:n-1]
	} else {
		h = &hold{r: r}
	}
	h.start = r.eng.Now()
	h.d = d
	h.done, h.arg = done, arg
	r.acquire(waiter{fn: holdGranted, arg: h})
}

// holdGranted runs when a hold's slot is granted: it records the queueing
// wait and schedules the release.
func holdGranted(x any) {
	h := x.(*hold)
	h.waited = h.r.eng.Now() - h.start
	h.r.eng.ScheduleArg(h.d, holdExpire, h)
}

// holdExpire runs when a hold's duration elapses: it releases the slot
// (granting the next waiter within the same instant, exactly as before),
// recycles the hold, and then calls the completion callback.
func holdExpire(x any) {
	h := x.(*hold)
	r := h.r
	r.Release()
	done, arg, waited := h.done, h.arg, h.waited
	h.done, h.arg = nil, nil
	r.freeHolds = append(r.freeHolds, h)
	if done != nil {
		done(arg, waited)
	}
}
