package transport

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// SimEndpoint binds one simulated node to a simnet.Network. It is a thin
// veneer: every Send issues exactly the network call the mining layers made
// before the abstraction existed, so simulated traffic — and with it the
// golden event trace — is byte-identical.
type SimEndpoint struct {
	nw   *simnet.Network
	node int
}

// NewSimEndpoint returns the endpoint for one node of the simulated network.
func NewSimEndpoint(nw *simnet.Network, node int) *SimEndpoint {
	return &SimEndpoint{nw: nw, node: node}
}

// simProc narrows a Proc back to the kernel process the simulated network
// requires. Every process the SimSpawner starts is a *sim.Proc, so the
// assertion only fails on a wiring bug (a RealProc handed to a simulated
// endpoint).
func simProc(p Proc) *sim.Proc {
	sp, ok := p.(*sim.Proc)
	if !ok {
		panic(fmt.Sprintf("transport: simulated endpoint driven by non-kernel process %T", p))
	}
	return sp
}

// Self returns the bound node id.
func (e *SimEndpoint) Self() int { return e.node }

// BlockSize returns the simulated fabric's message block size.
func (e *SimEndpoint) BlockSize() int { return e.nw.Config().BlockSize }

// Now returns the kernel's virtual time (for components outside a Proc
// context).
func (e *SimEndpoint) Now() sim.Time { return e.nw.Now() }

// Send transmits over the simulated network; it never errors (faults are
// modeled as silent drops, exactly as before the abstraction).
func (e *SimEndpoint) Send(p Proc, to, port int, payload any, size int) error {
	e.nw.Send(simProc(p), e.node, to, port, payload, size)
	return nil
}

// Recv blocks on the node/port inbox.
func (e *SimEndpoint) Recv(p Proc, port int) (Message, error) {
	m := e.nw.Inbox(e.node, port).Recv(simProc(p))
	return Message(m), nil
}

// RecvTimeout blocks on the node/port inbox with a virtual-time deadline; ok
// is false on timeout. A non-positive d degenerates to Recv.
func (e *SimEndpoint) RecvTimeout(p Proc, port int, d sim.Duration) (Message, bool, error) {
	m, ok := e.nw.Inbox(e.node, port).RecvTimeout(simProc(p), d)
	return Message(m), ok, nil
}

var _ Endpoint = (*SimEndpoint)(nil)

// SimSpawner starts kernel processes bound to their node's CPU resource.
type SimSpawner struct {
	K *sim.Kernel
	// CPUs, when set, holds one capacity-1 resource per cluster node; a
	// spawned process binds to its node's entry. Nil entries leave compute
	// uncontended.
	CPUs []*sim.Resource
}

// NewSimSpawner returns a spawner over kernel k with per-node CPUs (may be
// nil).
func NewSimSpawner(k *sim.Kernel, cpus []*sim.Resource) *SimSpawner {
	return &SimSpawner{K: k, CPUs: cpus}
}

// simHandle records a kernel process's completion. Wait is non-blocking by
// design: under cooperative scheduling a spawner that can observe the
// process's completion through the fabric (the receiver has drained the
// sender's done markers) sees the recorded error; a Wait before completion
// reports no error, exactly matching the pre-abstraction read of the
// sender's error slot.
type simHandle struct {
	done bool
	err  error
}

func (h *simHandle) Wait(p Proc) error {
	if h.done {
		return h.err
	}
	return nil
}

// Go spawns fn as a kernel process named name, bound to node's CPU.
func (s *SimSpawner) Go(node int, name string, fn func(p Proc) error) Handle {
	h := &simHandle{}
	proc := s.K.Go(name, func(sp *sim.Proc) {
		h.err = fn(sp)
		h.done = true
	})
	if node < len(s.CPUs) && s.CPUs[node] != nil {
		proc.BindCPU(s.CPUs[node])
	}
	return h
}

var _ Spawner = (*SimSpawner)(nil)

// SimStats adapts the simulated network's fabric-wide counters.
var _ FabricStats = (*simnet.Network)(nil)
