package sim

// Chan is an unbounded FIFO message queue connecting simulation processes.
// Send never blocks (senders model transmission delay separately, e.g. via a
// NIC Resource); Recv blocks the calling process until a value is available.
// Values may also be injected from kernel (event) context with Push, which is
// how network deliveries arrive.
type Chan[T any] struct {
	k       *Kernel
	name    string
	buf     []T // buffered values are buf[head:]
	head    int
	waiters []*chanWaiter[T]
	spare   []*chanWaiter[T] // finished waiter records, reused by the next blocking receive
	sent    uint64
}

// chanWaiter is one blocked receive. A process waits on at most one channel
// at a time, so records are recycled through Chan.spare rather than
// allocated per wait.
type chanWaiter[T any] struct {
	p         *Proc
	val       T
	delivered bool   // a Push handed this waiter a value
	gen       uint64 // bumped on recycle, so a stale RecvTimeout deadline cannot touch a later wait
}

// NewChan creates an empty channel owned by kernel k.
func NewChan[T any](k *Kernel, name string) *Chan[T] {
	return &Chan[T]{k: k, name: name}
}

// Name returns the channel's diagnostic name.
func (c *Chan[T]) Name() string { return c.name }

// Len returns the number of buffered (undelivered) values.
func (c *Chan[T]) Len() int { return len(c.buf) - c.head }

// Sent returns the total number of values ever pushed.
func (c *Chan[T]) Sent() uint64 { return c.sent }

// Push enqueues v at the current instant. Safe from kernel (event) context;
// also usable from process context via Send.
func (c *Chan[T]) Push(v T) {
	c.sent++
	if len(c.waiters) > 0 {
		w := c.waiters[0]
		copy(c.waiters, c.waiters[1:])
		c.waiters[len(c.waiters)-1] = nil
		c.waiters = c.waiters[:len(c.waiters)-1]
		w.val = v
		w.delivered = true
		c.k.wakeAt(c.k.now, w.p)
		return
	}
	if len(c.buf) == cap(c.buf) && c.head > 0 {
		n := copy(c.buf, c.buf[c.head:])
		clear(c.buf[n:])
		c.buf, c.head = c.buf[:n], 0
	}
	c.buf = append(c.buf, v)
}

// shift removes and returns the oldest buffered value. A drained buffer
// starts again at the front of its array, so a steady flow reuses it.
func (c *Chan[T]) shift() T {
	v := c.buf[c.head]
	var zero T
	c.buf[c.head] = zero
	c.head++
	if c.head == len(c.buf) {
		c.buf, c.head = c.buf[:0], 0
	}
	return v
}

// Send enqueues v from process context. Pending Work on p is flushed first so
// the value is timestamped after the work that produced it.
func (c *Chan[T]) Send(p *Proc, v T) {
	p.Flush()
	c.Push(v)
}

// Recv blocks p until a value is available and returns it.
func (c *Chan[T]) Recv(p *Proc) T {
	p.Flush()
	if c.Len() > 0 {
		return c.shift()
	}
	w := c.wait(p)
	p.yield()
	v, _ := c.recycle(w)
	return v
}

// RecvTimeout blocks p until a value is available or d elapses. ok reports
// whether a value was received; on timeout the zero value is returned and the
// process resumes at the deadline. A non-positive d degenerates to Recv.
func (c *Chan[T]) RecvTimeout(p *Proc, d Duration) (v T, ok bool) {
	if d <= 0 {
		return c.Recv(p), true
	}
	p.Flush()
	if c.Len() > 0 {
		return c.shift(), true
	}
	w := c.wait(p)
	gen := w.gen
	c.k.After(d, func() { c.expire(w, gen) })
	p.yield()
	return c.recycle(w)
}

// wait queues a waiter record for p, reusing a spare one when there is one.
func (c *Chan[T]) wait(p *Proc) *chanWaiter[T] {
	var w *chanWaiter[T]
	if n := len(c.spare); n > 0 {
		w = c.spare[n-1]
		c.spare = c.spare[:n-1]
	} else {
		w = new(chanWaiter[T])
	}
	w.p = p
	c.waiters = append(c.waiters, w)
	return w
}

// recycle returns what w received and puts the record back for reuse.
func (c *Chan[T]) recycle(w *chanWaiter[T]) (v T, ok bool) {
	v, ok = w.val, w.delivered
	*w = chanWaiter[T]{gen: w.gen + 1}
	c.spare = append(c.spare, w)
	return v, ok
}

// expire is a RecvTimeout deadline for wait generation gen of w. If that
// wait is still blocked, it leaves the queue and its process resumes now.
func (c *Chan[T]) expire(w *chanWaiter[T], gen uint64) {
	if w.gen != gen || w.delivered {
		return
	}
	for i, q := range c.waiters {
		if q == w {
			copy(c.waiters[i:], c.waiters[i+1:])
			c.waiters[len(c.waiters)-1] = nil
			c.waiters = c.waiters[:len(c.waiters)-1]
			break
		}
	}
	c.k.woken = w.p
}

// TryRecv returns a buffered value without blocking; ok reports whether one
// was available.
func (c *Chan[T]) TryRecv(p *Proc) (v T, ok bool) {
	p.Flush()
	if c.Len() == 0 {
		return v, false
	}
	return c.shift(), true
}
