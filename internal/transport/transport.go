package transport

import (
	"fmt"

	"repro/internal/sim"
)

// Proc is the execution context a transport operation charges time against.
// *sim.Proc satisfies it on the simulated backend; RealProc satisfies it on
// the TCP backend, where Work charges accrue for accounting but real time is
// not slept away.
type Proc interface {
	// Work accrues d of modeled CPU time, charged lazily.
	Work(d sim.Duration)
	// Sleep blocks the process for d (virtual or real, per backend).
	Sleep(d sim.Duration)
	// Now returns the current time on the backend's clock, including any
	// pending Work charge.
	Now() sim.Time
	// Flush converts accumulated Work into elapsed time (simulated backend);
	// a no-op where modeled charges do not advance the clock.
	Flush()
}

// Message is a delivered transport message. Payload crosses by reference on
// the simulated backend and by gob value over TCP; Size is the modeled wire
// size either way and determines all simulated timing and traffic counters.
type Message struct {
	From, To int
	Port     int
	Payload  any
	Size     int
	SentAt   sim.Time
}

// Endpoint is one node's attachment to the cluster fabric: addressed sends
// and per-port inbox receives. An Endpoint is bound to its node (Self); the
// mining layers hold one per hosted node.
type Endpoint interface {
	// Self returns the node id this endpoint is bound to.
	Self() int
	// BlockSize returns the fabric's message block size in bytes (drives
	// batching and line wire-size accounting).
	BlockSize() int
	// Send transmits payload of the given modeled wire size from Self to
	// node `to` on `port`. The simulated backend blocks the caller for NIC
	// occupancy and never errors; the TCP backend errors on a broken mesh.
	Send(p Proc, to, port int, payload any, size int) error
	// Recv blocks until a message arrives on the port's inbox.
	Recv(p Proc, port int) (Message, error)
}

// Handle tracks a spawned process.
type Handle interface {
	// Wait returns the process's error. On the simulated backend it is
	// non-blocking — cooperative scheduling guarantees the spawned process
	// has run to completion whenever its spawner can observe it through the
	// fabric, so Wait just reads the recorded result. On the TCP backend it
	// blocks until the goroutine returns.
	Wait(p Proc) error
}

// Spawner starts processes on cluster nodes: kernel processes bound to the
// node's CPU resource on the simulated backend, goroutines on the TCP
// backend.
type Spawner interface {
	Go(node int, name string, fn func(p Proc) error) Handle
}

// FabricStats exposes fabric-wide traffic totals where the backend can
// observe them (the simulated network); nil where it cannot.
type FabricStats interface {
	Messages() uint64
	Bytes() uint64
}

// Well-known ports.
const (
	// PortData carries HPA candidate/counting itemset blocks.
	PortData = iota
	// PortCtrl carries barrier and large-itemset exchange traffic.
	PortCtrl
	// PortMem carries store/fetch/update/migrate requests to memory-available
	// node stores.
	PortMem
	// PortMemReply carries fetch replies back to application nodes.
	PortMemReply
	// PortMon carries memory-availability reports and migration completion
	// notices to application nodes.
	PortMon
)

// Layout assigns roles to the PC cluster's nodes: the first AppNodes ids run
// the application, the next MemNodes ids are memory-available nodes.
type Layout struct {
	AppNodes int
	MemNodes int
}

// Validate reports the first invalid field.
func (l Layout) Validate() error {
	if l.AppNodes < 1 {
		return fmt.Errorf("transport: need at least one application node")
	}
	if l.MemNodes < 0 {
		return fmt.Errorf("transport: negative memory node count")
	}
	return nil
}

// Total returns the total node count.
func (l Layout) Total() int { return l.AppNodes + l.MemNodes }

// AppIDs returns the application node ids (0..AppNodes-1).
func (l Layout) AppIDs() []int {
	ids := make([]int, l.AppNodes)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// MemIDs returns the memory-available node ids.
func (l Layout) MemIDs() []int {
	ids := make([]int, l.MemNodes)
	for i := range ids {
		ids[i] = l.AppNodes + i
	}
	return ids
}
