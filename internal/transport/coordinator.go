package transport

import (
	"encoding/gob"
	"fmt"
)

// Coordinator control messages. Registered with gob so the TCP backend can
// carry them; the simulated backend passes them by reference. Every message
// carries the recovery generation it was sent under: after a peer loss the
// cluster bumps its generation and replays the interrupted pass, and
// stragglers from the aborted attempt are dropped by the generation filter
// instead of corrupting the replay.

type barrierArrive struct {
	Epoch int
	Gen   int
	From  int
}

type barrierRelease struct {
	Epoch int
	Gen   int
}

type gatherMsg struct {
	Epoch   int
	Gen     int
	From    int
	Payload any
}

func init() {
	gob.Register(barrierArrive{})
	gob.Register(barrierRelease{})
	gob.Register(gatherMsg{})
}

const ctrlMsgBytes = 32

// ctrlGen extracts the generation stamp of a control payload.
func ctrlGen(pl any) (int, bool) {
	switch v := pl.(type) {
	case barrierArrive:
		return v.Gen, true
	case barrierRelease:
		return v.Gen, true
	case gatherMsg:
		return v.Gen, true
	}
	return 0, false
}

// Coordinator mediates barriers and gathers among the application nodes.
// Node 0 acts as the central coordinator, as a designated process would on
// the real cluster. All application nodes must call the same sequence of
// Barrier/GatherAll operations with strictly increasing epochs within a
// generation (a generation's Resync comes first, at epoch -1); messages for
// a later epoch arriving early (nodes run ahead) are buffered. One
// Coordinator serves one node (its endpoint's Self) on one control port.
type Coordinator struct {
	ep      Endpoint
	n       int // application node count
	port    int
	gen     int   // current recovery generation (0 = fault-free)
	stale   int   // control payloads dropped by the generation filter
	pending []any // control payloads received but not yet consumed
}

// NewCoordinator creates the coordinator for endpoint ep's node among n
// application nodes, exchanging control traffic on the given port.
func NewCoordinator(ep Endpoint, n, port int) *Coordinator {
	return &Coordinator{ep: ep, n: n, port: port}
}

// Gen returns the current recovery generation.
func (c *Coordinator) Gen() int { return c.gen }

// StaleDropped returns how many control payloads the generation filter has
// discarded (traffic from aborted pass attempts).
func (c *Coordinator) StaleDropped() int { return c.stale }

// SetGen advances the recovery generation. Buffered payloads from older
// generations are dropped; payloads from this or a future generation (a
// peer that recovered first and ran ahead) stay buffered.
func (c *Coordinator) SetGen(g int) {
	c.gen = g
	kept := c.pending[:0]
	for _, pl := range c.pending {
		if mg, ok := ctrlGen(pl); ok && mg < g {
			c.stale++
			continue
		}
		kept = append(kept, pl)
	}
	for i := len(kept); i < len(c.pending); i++ {
		c.pending[i] = nil
	}
	c.pending = kept
}

// recvMatching returns the first buffered or newly received control payload
// for which match returns true, buffering everything else. Payloads from an
// older generation are dropped; match is only offered current-generation
// payloads (future generations wait buffered for SetGen to catch up).
func (c *Coordinator) recvMatching(p Proc, match func(any) bool) (any, error) {
	offer := func(pl any) bool {
		if mg, ok := ctrlGen(pl); ok && mg != c.gen {
			return false
		}
		return match(pl)
	}
	for i, pl := range c.pending {
		if offer(pl) {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return pl, nil
		}
	}
	for {
		m, err := c.ep.Recv(p, c.port)
		if err != nil {
			return nil, err
		}
		if mg, ok := ctrlGen(m.Payload); ok && mg < c.gen {
			c.stale++
			continue
		}
		if offer(m.Payload) {
			return m.Payload, nil
		}
		c.pending = append(c.pending, m.Payload)
	}
}

// Barrier blocks until every application node has arrived at the same epoch.
func (c *Coordinator) Barrier(p Proc, epoch int) error {
	n := c.n
	if n == 1 {
		return nil
	}
	self := c.ep.Self()
	if self == 0 {
		for seen := 0; seen < n-1; seen++ {
			if _, err := c.recvMatching(p, func(pl any) bool {
				arr, ok := pl.(barrierArrive)
				return ok && arr.Epoch == epoch
			}); err != nil {
				return fmt.Errorf("transport: barrier %d collect: %w", epoch, err)
			}
		}
		for to := 1; to < n; to++ {
			if err := c.ep.Send(p, to, c.port, barrierRelease{Epoch: epoch, Gen: c.gen}, ctrlMsgBytes); err != nil {
				return fmt.Errorf("transport: barrier %d release to %d: %w", epoch, to, err)
			}
		}
		return nil
	}
	if err := c.ep.Send(p, 0, c.port, barrierArrive{Epoch: epoch, Gen: c.gen, From: self}, ctrlMsgBytes); err != nil {
		return fmt.Errorf("transport: barrier %d arrive: %w", epoch, err)
	}
	if _, err := c.recvMatching(p, func(pl any) bool {
		rel, ok := pl.(barrierRelease)
		return ok && rel.Epoch == epoch
	}); err != nil {
		return fmt.Errorf("transport: barrier %d wait: %w", epoch, err)
	}
	return nil
}

// GatherAll performs an all-to-all exchange: every application node
// contributes payload (of the given wire size) and receives the payloads of
// all nodes, indexed by node id. It is how pass results ("each processor...
// broadcasts them to the other processors") propagate.
func (c *Coordinator) GatherAll(p Proc, epoch int, payload any, size int) ([]any, error) {
	n := c.n
	self := c.ep.Self()
	out := make([]any, n)
	out[self] = payload
	if n == 1 {
		return out, nil
	}
	for to := 0; to < n; to++ {
		if to == self {
			continue
		}
		if err := c.ep.Send(p, to, c.port, gatherMsg{Epoch: epoch, Gen: c.gen, From: self, Payload: payload}, size); err != nil {
			return nil, fmt.Errorf("transport: gather %d send to %d: %w", epoch, to, err)
		}
	}
	got := make([]bool, n)
	got[self] = true
	for seen := 0; seen < n-1; seen++ {
		pl, err := c.recvMatching(p, func(pl any) bool {
			g, ok := pl.(gatherMsg)
			return ok && g.Epoch == epoch && !got[g.From]
		})
		if err != nil {
			return nil, fmt.Errorf("transport: gather %d collect: %w", epoch, err)
		}
		g := pl.(gatherMsg)
		out[g.From] = g.Payload
		got[g.From] = true
	}
	return out, nil
}

// resyncEpoch is Resync's gather epoch. No pass uses it, and each
// generation resyncs once, so it collides neither with a pass's collectives
// nor with an earlier resync.
const resyncEpoch = -1

// Resync is the post-recovery rendezvous. Every node calls it after bumping
// to the same generation with SetGen, voting its own first unfinished pass.
// The votes are gathered all-to-all and every node returns their minimum,
// floored at pass 1: nobody's unfinished work may be skipped (node 0's
// bookkeeping of a pass is only durable once every node got past its final
// barrier). Every node gathers the same votes, so every node returns the
// same pass.
func (c *Coordinator) Resync(p Proc, resume int) (int, error) {
	votes, err := c.GatherAll(p, resyncEpoch, resume, ctrlMsgBytes)
	if err != nil {
		return 0, fmt.Errorf("transport: resync gen %d: %w", c.gen, err)
	}
	pass := resume
	for _, v := range votes {
		pass = min(pass, v.(int))
	}
	return max(1, pass), nil
}
