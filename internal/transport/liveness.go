package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// PeerLostError reports that a mesh peer has been declared dead: its
// connection reset, its heartbeats stopped, or it rejoined after an unseen
// restart. Collectives surface it instead of hanging so the caller can run
// recovery (wait for the supervisor to respawn the rank, then resync).
type PeerLostError struct {
	Rank  int
	Cause error
}

func (e *PeerLostError) Error() string {
	if e.Cause == nil {
		return fmt.Sprintf("transport: peer %d lost", e.Rank)
	}
	return fmt.Sprintf("transport: peer %d lost: %v", e.Rank, e.Cause)
}

func (e *PeerLostError) Unwrap() error { return e.Cause }

// errPeerRestarted marks a death observed only through the peer's rejoin
// notice (the node was busy computing through the whole death window).
var errPeerRestarted = errors.New("peer restarted")

// Reviver is the optional endpoint capability the recovery path needs: wait
// until a previously lost rank has rejoined the fabric and clear its dead
// mark. TCPMesh implements it; the simulated backend (whose procs cannot
// die) does not.
type Reviver interface {
	WaitRejoin(rank int, timeout time.Duration) error
}

// MeshOptions configures the optional liveness layer of a TCPMesh.
// A zero Heartbeat leaves liveness off: no heartbeats are sent, no peer is
// ever declared dead, and a dead peer hangs its collectives.
type MeshOptions struct {
	// Heartbeat is the heartbeat period; 0 disables liveness. A peer silent
	// for 8 periods is declared dead.
	Heartbeat time.Duration
	// OnPeerLost fires once per directly observed death (conn reset or
	// heartbeat timeout) from a mesh-internal goroutine. The supervisor
	// hangs its respawn logic here.
	OnPeerLost func(rank int, cause error)
}

// peerTimeoutBeats is how many heartbeat periods of silence declare a peer
// dead.
const peerTimeoutBeats = 8

// initLiveness arms the per-peer liveness state; called before bootstrap.
func (m *TCPMesh) initLiveness(o MeshOptions) {
	m.opts = o
	if o.Heartbeat <= 0 {
		return
	}
	m.live = true
	m.deadErr = make([]error, m.n)
	m.deadSeq = make([]uint64, m.n)
	m.rejoinSeq = make([]uint64, m.n)
	m.inGen = make([]uint64, m.n)
	m.liveCh = make(chan struct{})
	m.lastHeard = make([]atomic.Int64, m.n)
	now := time.Now().UnixNano()
	for i := range m.lastHeard {
		m.lastHeard[i].Store(now)
	}
}

// startLiveness launches the heartbeat monitor once bootstrap completed.
func (m *TCPMesh) startLiveness() {
	if !m.live || m.n == 1 {
		return
	}
	// Bootstrap may have taken a while; don't count it as silence.
	now := time.Now().UnixNano()
	for i := range m.lastHeard {
		m.lastHeard[i].Store(now)
	}
	go m.heartbeatLoop()
}

func (m *TCPMesh) heartbeatLoop() {
	tick := time.NewTicker(m.opts.Heartbeat)
	defer tick.Stop()
	limit := peerTimeoutBeats * m.opts.Heartbeat
	for {
		select {
		case <-m.closed:
			return
		case <-tick.C:
		}
		now := time.Now()
		for r := 0; r < m.n; r++ {
			if r == m.self {
				continue
			}
			// Heartbeats are liveness traffic, not modeled app traffic:
			// they bypass the tx counters so sim-vs-TCP stats stay honest.
			m.sendFrame(r, meshFrame{Kind: frameHeartbeat, From: m.self})
			silent := now.Sub(time.Unix(0, m.lastHeard[r].Load()))
			if silent > limit {
				m.markDead(r, fmt.Errorf("no heartbeat for %v", silent.Round(time.Millisecond)), true)
			}
		}
	}
}

// touch records inbound traffic from a peer (any frame counts as life).
func (m *TCPMesh) touch(from int) {
	if m.live {
		m.lastHeard[from].Store(time.Now().UnixNano())
	}
}

// noteInbound registers a new inbound connection from a peer and returns its
// generation; a stale readLoop (superseded by a rejoin) uses the generation
// to avoid re-marking a revived peer dead when it finally exits.
func (m *TCPMesh) noteInbound(from int) uint64 {
	if !m.live {
		return 0
	}
	m.touch(from)
	m.lmu.Lock()
	defer m.lmu.Unlock()
	m.inGen[from]++
	return m.inGen[from]
}

// inboundGone is the edge-triggered death observation: the peer's inbound
// connection died. Only the current-generation connection gets to mark.
func (m *TCPMesh) inboundGone(from int, gen uint64) {
	if !m.live {
		return
	}
	select {
	case <-m.closed:
		return
	default:
	}
	m.lmu.Lock()
	current := m.inGen[from] == gen
	m.lmu.Unlock()
	if current {
		m.markDead(from, errors.New("connection lost"), true)
	}
}

// markDead records the first observation of a peer's death, wakes every
// blocked Recv/WaitRejoin, closes the outbound edge (so in-flight encodes
// unblock), and — for directly observed deaths — fires OnPeerLost.
func (m *TCPMesh) markDead(rank int, cause error, direct bool) {
	if !m.live || rank == m.self {
		return
	}
	m.lmu.Lock()
	if m.deadErr[rank] != nil {
		m.lmu.Unlock()
		return
	}
	m.deadErr[rank] = cause
	m.deadSeq[rank] = m.rejoinSeq[rank]
	old := m.peers[rank]
	m.peers[rank] = nil
	m.bumpLiveLocked()
	m.lmu.Unlock()
	if old != nil {
		old.mu.Lock()
		old.conn.Close()
		old.mu.Unlock()
	}
	if direct && m.opts.OnPeerLost != nil {
		go m.opts.OnPeerLost(rank, cause)
	}
}

// bumpLiveLocked broadcasts a liveness state change (lmu held).
func (m *TCPMesh) bumpLiveLocked() {
	close(m.liveCh)
	m.liveCh = make(chan struct{})
}

// liveState returns the current broadcast channel and the first dead peer
// (lowest rank), if any.
func (m *TCPMesh) liveState() (<-chan struct{}, error) {
	if !m.live {
		return nil, nil
	}
	m.lmu.Lock()
	defer m.lmu.Unlock()
	ch := m.liveCh
	for r, cause := range m.deadErr {
		if cause != nil {
			return ch, &PeerLostError{Rank: r, Cause: cause}
		}
	}
	return ch, nil
}

// deadTarget reports whether a specific send target is currently dead.
func (m *TCPMesh) deadTarget(to int) error {
	if !m.live {
		return nil
	}
	m.lmu.Lock()
	defer m.lmu.Unlock()
	if cause := m.deadErr[to]; cause != nil {
		return &PeerLostError{Rank: to, Cause: cause}
	}
	return nil
}

// WaitRejoin blocks until the given dead-marked rank has rejoined the mesh,
// then clears its dead mark. Every node's recovery path calls it, so every
// death is acknowledged exactly once per observer before traffic resumes.
func (m *TCPMesh) WaitRejoin(rank int, timeout time.Duration) error {
	if !m.live {
		return errors.New("transport: mesh liveness not enabled")
	}
	if rank < 0 || rank >= m.n || rank == m.self {
		return fmt.Errorf("transport: WaitRejoin bad rank %d", rank)
	}
	deadline := time.Now().Add(timeout)
	m.lmu.Lock()
	for {
		if m.deadErr[rank] == nil {
			m.lmu.Unlock()
			return nil
		}
		if m.rejoinSeq[rank] > m.deadSeq[rank] {
			m.deadErr[rank] = nil
			m.bumpLiveLocked()
			m.lmu.Unlock()
			return nil
		}
		ch := m.liveCh
		m.lmu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return fmt.Errorf("transport: peer %d did not rejoin within %v", rank, timeout)
		}
		timer := time.NewTimer(wait)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			return fmt.Errorf("transport: peer %d did not rejoin within %v", rank, timeout)
		case <-m.closed:
			timer.Stop()
			return ErrMeshClosed
		}
		m.lmu.Lock()
	}
}

// processRejoin installs a revived peer's new listener address: dial a fresh
// outbound edge, supersede the old one, and bump the rank's rejoin sequence
// so WaitRejoin observers move on. A node that never directly observed the
// death gets a synthetic dead mark first, keeping per-observer death counts
// (and therefore collective generations) consistent across the cluster.
func (m *TCPMesh) processRejoin(rank int, addr string) error {
	if !m.live || rank == m.self || rank < 0 || rank >= m.n {
		return nil
	}
	pc, err := m.dialEdge(rank, addr)
	if err != nil {
		return err
	}
	m.lmu.Lock()
	if m.deadErr[rank] == nil {
		m.deadErr[rank] = errPeerRestarted
		m.deadSeq[rank] = m.rejoinSeq[rank]
	}
	old := m.peers[rank]
	m.peers[rank] = pc
	m.rejoinSeq[rank]++
	m.bumpLiveLocked()
	m.lmu.Unlock()
	m.lastHeard[rank].Store(time.Now().UnixNano())
	if old != nil {
		old.mu.Lock()
		old.conn.Close()
		old.mu.Unlock()
	}
	return nil
}

// RejoinMesh bootstraps a replacement process for a previously lost rank: it
// binds a fresh listener, announces itself to the rendezvous (node 0), and
// re-dials the fleet from the returned address table. Peers learn the new
// address through node 0's rejoin notice. A peer that cannot be dialed (it
// may itself be mid-restart) is dead-marked rather than failing bootstrap.
func RejoinMesh(self, n int, coordAddr string, o MeshOptions) (*TCPMesh, error) {
	if self < 1 || self >= n {
		return nil, fmt.Errorf("transport: mesh rank %d of %d cannot rejoin (rank 0 is the rendezvous)", self, n)
	}
	if o.Heartbeat <= 0 {
		return nil, errors.New("transport: rejoin requires liveness (MeshOptions.Heartbeat)")
	}
	return joinVia(helloRejoin, self, n, coordAddr, o)
}
