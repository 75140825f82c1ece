package sim

// Resource is a FIFO server pool with fixed capacity: at most capacity
// processes hold it at once; others queue in arrival order. It models
// serialized devices such as a NIC transmitter or a disk arm.
type Resource struct {
	k        *Kernel
	name     string
	capacity int
	inUse    int
	waiters  []*Proc

	// Statistics.
	acquires  uint64
	busyUntil Time // for BusyTime accounting (capacity 1 approximation)
	busy      Duration
	lastStart Time
}

// NewResource creates a resource with the given capacity (must be ≥ 1).
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{k: k, name: name, capacity: capacity}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// InUse returns the number of current holders.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// Acquires returns the total number of successful acquisitions.
func (r *Resource) Acquires() uint64 { return r.acquires }

// BusyTime returns the cumulative time during which at least one holder was
// active. For capacity-1 resources this is exact utilization time.
func (r *Resource) BusyTime() Duration { return r.busy }

// Acquire blocks p until a slot is free, FIFO order. Pending Work is
// flushed first, so a process never waits on another resource while holding
// an unpaid compute charge.
func (r *Resource) Acquire(p *Proc) {
	p.Flush()
	r.acquire(p)
}

// acquire is Acquire without the flush; the CPU-binding path in Proc.Flush
// uses it to avoid recursing into itself.
func (r *Resource) acquire(p *Proc) {
	if r.inUse < r.capacity {
		r.grant()
		return
	}
	r.waiters = append(r.waiters, p)
	p.yield()
	// Slot was granted on our behalf by Release before we were woken.
}

func (r *Resource) grant() {
	if r.inUse == 0 {
		r.lastStart = r.k.now
	}
	r.inUse++
	r.acquires++
}

// Release frees one slot held by p and hands it to the longest waiter, if
// any.
func (r *Resource) Release(p *Proc) {
	p.Flush()
	r.release()
}

func (r *Resource) release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	r.inUse--
	if r.inUse == 0 {
		r.busy += r.k.now.Sub(r.lastStart)
	}
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters[len(r.waiters)-1] = nil
		r.waiters = r.waiters[:len(r.waiters)-1]
		r.grant()
		r.k.After(0, r.k.wakeEvent(w))
	}
}

// Use acquires the resource, holds it for d, and releases it. It is the
// common pattern for transmit/seek style occupancy.
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release(p)
}
