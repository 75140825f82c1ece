package transport

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// ErrMeshClosed is returned by Recv/Send on a mesh that has been closed.
var ErrMeshClosed = errors.New("transport: mesh closed")

// meshJoinTimeout bounds the whole bootstrap (registration + dialing).
const meshJoinTimeout = 30 * time.Second

// meshBlockSize is the modeled message block size, the paper's 4 KB.
const meshBlockSize = 4096

// meshReadBuffer is the kernel receive buffer of an inbound data edge. A
// sender can ship a whole pass's blocks faster than the peer's read loop is
// scheduled. With Linux's autotuned start (128 KB, half of it advertised) the
// open window stays below one 64 KB loopback segment, the receiver withholds
// the window update, and the sender idles until its 200 ms persist timer
// fires. At 1 MB the window stays well above one segment.
const meshReadBuffer = 1 << 20

// Bootstrap and data frames. Every connection starts with one meshHello;
// registration connections then carry one meshTable back, data connections
// carry meshFrames for the rest of their life.

const (
	helloReg    = 0 // node registering its listener address with node 0
	helloData   = 1 // peer's outbound data edge
	helloRejoin = 2 // revived rank re-registering a fresh listener address
)

type meshHello struct {
	Kind int
	From int
	Addr string
}

type meshTable struct {
	Addrs []string
}

// Frame kinds carried on data edges. Data frames feed the port inboxes;
// heartbeat and rejoin frames belong to the liveness layer and never touch
// the modeled traffic counters.
const (
	frameData      = 0
	frameHeartbeat = 1
	frameRejoin    = 2 // Payload is a meshHello naming the revived rank
)

type meshFrame struct {
	Kind    int
	From    int
	Port    int
	Size    int
	Payload any
}

func init() {
	gob.Register(meshHello{})
}

// meshInbox is an unbounded per-port delivery queue.
type meshInbox struct {
	mu     sync.Mutex
	items  []Message
	notify chan struct{} // cap 1; coalesced wake-up
}

func newMeshInbox() *meshInbox {
	return &meshInbox{notify: make(chan struct{}, 1)}
}

func (b *meshInbox) push(m Message) {
	b.mu.Lock()
	b.items = append(b.items, m)
	b.mu.Unlock()
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

// pop takes the head item; on success it re-signals if items remain, so a
// second waiter (unusual, but legal) is not lost to the coalesced wake-up.
func (b *meshInbox) pop() (Message, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.items) == 0 {
		return Message{}, false
	}
	m := b.items[0]
	b.items[0] = Message{}
	b.items = b.items[1:]
	if len(b.items) > 0 {
		select {
		case b.notify <- struct{}{}:
		default:
		}
	}
	return m, true
}

// meshConn is one outbound edge: a gob encoder guarded by a mutex, because a
// node's main process and its sender process transmit concurrently.
type meshConn struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
}

// TCPMesh is one node's attachment to a full mesh of gob-framed TCP
// connections between miner processes — the pilot system's "mesh topology"
// of transport endpoints, on real sockets. Node 0's listener doubles as the
// rendezvous point: other nodes register their own listener addresses with
// it, receive the full address table, and then every node dials every peer
// once for its outbound edge.
type TCPMesh struct {
	self, n int
	start   time.Time

	ln     net.Listener
	inbox  sync.Map // port int -> *meshInbox
	closed chan struct{}
	once   sync.Once

	txMsgs, txBytes atomic.Uint64

	// rendezvous state (node 0 only)
	regMu    sync.Mutex
	regAddrs []string
	regConns []net.Conn
	regDone  chan struct{}

	// liveness state (see liveness.go); peers is guarded by lmu because
	// rejoins swap edges while Send is in flight. With liveness off the
	// slice is immutable after bootstrap and the lock is uncontended.
	opts      MeshOptions
	live      bool
	lmu       sync.Mutex
	peers     []*meshConn // outbound edges, indexed by peer id (self nil)
	deadErr   []error     // non-nil => rank is dead-marked
	deadSeq   []uint64    // rejoinSeq value captured at dead-mark time
	rejoinSeq []uint64    // processed rejoins per rank
	inGen     []uint64    // inbound connection generation per rank
	liveCh    chan struct{}
	lastHeard []atomic.Int64
}

// ListenMesh binds node 0's rendezvous listener for an n-node mesh and
// starts accepting registrations in the background. Addr() is valid
// immediately (so child processes can be pointed at it); Join completes the
// bootstrap.
func ListenMesh(n int, listen string, o MeshOptions) (*TCPMesh, error) {
	if n < 1 {
		return nil, errors.New("transport: mesh needs at least one node")
	}
	m := newMesh(0, n)
	m.initLiveness(o)
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	m.ln = ln
	m.regAddrs = make([]string, n)
	m.regAddrs[0] = ln.Addr().String()
	m.regDone = make(chan struct{})
	if n == 1 {
		close(m.regDone)
	}
	go m.acceptLoop()
	return m, nil
}

// Join completes node 0's bootstrap: it waits for every other node to
// register, replies with the address table, and dials each peer's data edge.
func (m *TCPMesh) Join() error {
	select {
	case <-m.regDone:
	case <-time.After(meshJoinTimeout):
		return fmt.Errorf("transport: mesh rendezvous timed out waiting for %d peers", m.n-1)
	case <-m.closed:
		return ErrMeshClosed
	}
	m.regMu.Lock()
	table := meshTable{Addrs: append([]string(nil), m.regAddrs...)}
	conns := m.regConns
	m.regConns = nil
	m.regMu.Unlock()
	for _, c := range conns {
		if err := gob.NewEncoder(c).Encode(table); err != nil {
			c.Close()
			return fmt.Errorf("transport: mesh table send: %w", err)
		}
		c.Close()
	}
	if err := m.dialPeers(table.Addrs, false); err != nil {
		return err
	}
	m.startLiveness()
	return nil
}

// JoinMesh bootstraps node self (> 0) of an n-node mesh: bind a listener,
// register it with the rendezvous at coordAddr, receive the address table,
// and dial every peer's data edge.
func JoinMesh(self, n int, coordAddr string, o MeshOptions) (*TCPMesh, error) {
	if self < 1 || self >= n {
		return nil, fmt.Errorf("transport: mesh node %d of %d must join via ListenMesh or be in [1,%d)", self, n, n)
	}
	return joinVia(helloReg, self, n, coordAddr, o)
}

// joinVia is the rendezvous handshake of a node other than 0, announcing
// itself with the given hello kind (helloReg or helloRejoin): bind a fresh
// listener, send its address to the rendezvous at coordAddr (retrying while
// the rendezvous boots), receive the address table, and dial every peer.
func joinVia(kind, self, n int, coordAddr string, o MeshOptions) (*TCPMesh, error) {
	m := newMesh(self, n)
	m.initLiveness(o)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m.ln = ln
	go m.acceptLoop()
	fail := func(err error) (*TCPMesh, error) {
		m.Close()
		return nil, err
	}

	var conn net.Conn
	deadline := time.Now().Add(meshJoinTimeout)
	for {
		conn, err = net.DialTimeout("tcp", coordAddr, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("transport: mesh rendezvous %s unreachable: %w", coordAddr, err))
		}
		time.Sleep(50 * time.Millisecond)
	}
	conn.SetDeadline(time.Now().Add(meshJoinTimeout))
	var table meshTable
	err = gob.NewEncoder(conn).Encode(meshHello{Kind: kind, From: self, Addr: m.Addr()})
	if err == nil {
		err = gob.NewDecoder(conn).Decode(&table)
	}
	conn.Close()
	if err != nil {
		return fail(fmt.Errorf("transport: mesh registration with %s: %w", coordAddr, err))
	}
	if len(table.Addrs) != n {
		return fail(fmt.Errorf("transport: mesh table has %d addresses, want %d", len(table.Addrs), n))
	}
	if err := m.dialPeers(table.Addrs, kind == helloRejoin); err != nil {
		return fail(err)
	}
	m.startLiveness()
	return m, nil
}

// LoopbackMeshes bootstraps a complete in-process n-node mesh on loopback
// and returns one endpoint per node (tests and the fidelity experiment).
// The options are shared by every node except OnPeerLost, which only node 0
// receives (it is the supervisor's hook).
func LoopbackMeshes(n int, o MeshOptions) ([]*TCPMesh, error) {
	m0, err := ListenMesh(n, "127.0.0.1:0", o)
	if err != nil {
		return nil, err
	}
	peerOpts := o
	peerOpts.OnPeerLost = nil
	meshes := make([]*TCPMesh, n)
	errs := make([]error, n)
	meshes[0] = m0
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			meshes[i], errs[i] = JoinMesh(i, n, m0.Addr(), peerOpts)
		}(i)
	}
	errs[0] = m0.Join()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, m := range meshes {
				if m != nil {
					m.Close()
				}
			}
			return nil, err
		}
	}
	return meshes, nil
}

func newMesh(self, n int) *TCPMesh {
	return &TCPMesh{
		self:   self,
		n:      n,
		start:  time.Now(),
		peers:  make([]*meshConn, n),
		closed: make(chan struct{}),
	}
}

// Addr returns this node's listener address (node 0's is the rendezvous).
func (m *TCPMesh) Addr() string { return m.ln.Addr().String() }

// dialPeers opens this node's outbound edge to every peer. A rejoining rank
// dead-marks an unreachable peer other than node 0 (it may itself be
// mid-restart) instead of failing.
func (m *TCPMesh) dialPeers(addrs []string, rejoin bool) error {
	for j, addr := range addrs {
		if j == m.self {
			continue
		}
		pc, err := m.dialEdge(j, addr)
		if err != nil {
			if !rejoin || j == 0 {
				return err
			}
			m.markDead(j, err, false)
			continue
		}
		m.lmu.Lock()
		m.peers[j] = pc
		m.lmu.Unlock()
	}
	return nil
}

// dialEdge opens an outbound data edge to peer j at addr; the caller
// installs it.
func (m *TCPMesh) dialEdge(j int, addr string) (*meshConn, error) {
	conn, err := net.DialTimeout("tcp", addr, meshJoinTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: mesh dial peer %d at %s: %w", j, addr, err)
	}
	enc := gob.NewEncoder(conn)
	if err := enc.Encode(meshHello{Kind: helloData, From: m.self}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: mesh hello to peer %d: %w", j, err)
	}
	return &meshConn{conn: conn, enc: enc}, nil
}

// acceptLoop serves inbound connections: registrations (node 0's rendezvous
// role) and peer data edges.
func (m *TCPMesh) acceptLoop() {
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go m.serveConn(conn)
	}
}

func (m *TCPMesh) serveConn(conn net.Conn) {
	dec := gob.NewDecoder(conn)
	var hello meshHello
	if err := dec.Decode(&hello); err != nil {
		conn.Close()
		return
	}
	switch hello.Kind {
	case helloReg:
		if m.self != 0 || hello.From < 1 || hello.From >= m.n {
			conn.Close()
			return
		}
		m.regMu.Lock()
		if m.regAddrs[hello.From] == "" {
			m.regAddrs[hello.From] = hello.Addr
			m.regConns = append(m.regConns, conn)
			if len(m.regConns) == m.n-1 {
				close(m.regDone)
			}
		} else {
			conn.Close() // duplicate registration
		}
		m.regMu.Unlock()
		// The connection is parked until Join sends the table on it.
	case helloData:
		if tc, ok := conn.(*net.TCPConn); ok {
			// Best effort: the kernel caps the size, and a smaller buffer
			// costs only speed.
			_ = tc.SetReadBuffer(meshReadBuffer)
		}
		m.readLoop(hello.From, conn, dec)
	case helloRejoin:
		m.serveRejoin(hello, conn)
	default:
		conn.Close()
	}
}

// serveRejoin is node 0's rendezvous role for a revived rank: install the
// new address, dial a fresh edge, reply with the current address table, and
// fan a rejoin notice out to the surviving peers so they re-dial too.
func (m *TCPMesh) serveRejoin(hello meshHello, conn net.Conn) {
	defer conn.Close()
	if m.self != 0 || !m.live || hello.From < 1 || hello.From >= m.n {
		return
	}
	m.regMu.Lock()
	m.regAddrs[hello.From] = hello.Addr
	table := meshTable{Addrs: append([]string(nil), m.regAddrs...)}
	m.regMu.Unlock()
	if err := m.processRejoin(hello.From, hello.Addr); err != nil {
		return
	}
	if err := gob.NewEncoder(conn).Encode(table); err != nil {
		return
	}
	notice := meshFrame{Kind: frameRejoin, From: m.self, Payload: meshHello{From: hello.From, Addr: hello.Addr}}
	for j := 1; j < m.n; j++ {
		if j == hello.From {
			continue
		}
		m.sendFrame(j, notice)
	}
}

// readLoop decodes data frames from one peer into the port inboxes.
func (m *TCPMesh) readLoop(from int, conn net.Conn, dec *gob.Decoder) {
	gen := m.noteInbound(from)
	defer func() {
		conn.Close()
		m.inboundGone(from, gen)
	}()
	for {
		var f meshFrame
		if err := dec.Decode(&f); err != nil {
			return
		}
		m.touch(from)
		switch f.Kind {
		case frameData:
			m.inboxFor(f.Port).push(Message{
				From: from, To: m.self, Port: f.Port,
				Payload: f.Payload, Size: f.Size, SentAt: m.Now(),
			})
		case frameHeartbeat:
			// Life signal only; m.touch above already recorded it.
		case frameRejoin:
			if h, ok := f.Payload.(meshHello); ok {
				go m.processRejoin(h.From, h.Addr)
			}
		}
	}
}

func (m *TCPMesh) inboxFor(port int) *meshInbox {
	if b, ok := m.inbox.Load(port); ok {
		return b.(*meshInbox)
	}
	b, _ := m.inbox.LoadOrStore(port, newMeshInbox())
	return b.(*meshInbox)
}

// Self returns the bound node id.
func (m *TCPMesh) Self() int { return m.self }

// BlockSize returns the modeled message block size (batching granularity):
// the simulated fabric's paper value, so TCP and simulated runs batch and
// account their traffic alike.
func (m *TCPMesh) BlockSize() int { return meshBlockSize }

// Now returns wall time elapsed since the mesh was created.
func (m *TCPMesh) Now() sim.Time { return sim.Time(time.Since(m.start)) }

// Send transmits payload to node `to` on `port`. Size is the modeled wire
// size; it feeds the traffic counters (for sim-vs-TCP comparison) while the
// actual bytes on the socket are whatever gob produces. A self-send
// bypasses the socket, exactly as the simulated fabric bypasses the wire.
func (m *TCPMesh) Send(p Proc, to, port int, payload any, size int) error {
	if to < 0 || to >= m.n {
		return fmt.Errorf("transport: mesh send to unknown node %d", to)
	}
	select {
	case <-m.closed:
		return ErrMeshClosed
	default:
	}
	if to == m.self {
		m.inboxFor(port).push(Message{
			From: m.self, To: m.self, Port: port,
			Payload: payload, Size: size, SentAt: m.Now(),
		})
		return nil
	}
	if err := m.deadTarget(to); err != nil {
		return err
	}
	if err := m.sendFrame(to, meshFrame{Kind: frameData, From: m.self, Port: port, Size: size, Payload: payload}); err != nil {
		if dead := m.deadTarget(to); dead != nil {
			return dead
		}
		return fmt.Errorf("transport: mesh send to node %d: %w", to, err)
	}
	m.txMsgs.Add(1)
	m.txBytes.Add(uint64(size))
	return nil
}

// sendFrame transmits a raw frame on the outbound edge without touching the
// modeled traffic counters (liveness traffic uses it directly).
func (m *TCPMesh) sendFrame(to int, f meshFrame) error {
	m.lmu.Lock()
	pc := m.peers[to]
	m.lmu.Unlock()
	if pc == nil {
		return fmt.Errorf("transport: mesh has no edge to node %d (join incomplete)", to)
	}
	pc.mu.Lock()
	err := pc.enc.Encode(f)
	pc.mu.Unlock()
	return err
}

// Recv blocks until a message arrives on the port. With liveness armed, a
// dead-marked peer fails the wait with *PeerLostError once the queue is
// drained — a collective waiting on the dead rank surfaces the loss instead
// of hanging.
func (m *TCPMesh) Recv(p Proc, port int) (Message, error) {
	b := m.inboxFor(port)
	for {
		if msg, ok := b.pop(); ok {
			return msg, nil
		}
		liveCh, dead := m.liveState()
		if dead != nil {
			return Message{}, dead
		}
		select {
		case <-b.notify:
		case <-liveCh:
		case <-m.closed:
			// Drain anything that raced with Close before reporting it.
			if msg, ok := b.pop(); ok {
				return msg, nil
			}
			return Message{}, ErrMeshClosed
		}
	}
}

// Messages returns this node's modeled cross-wire message count (transmit
// side; the simulated fabric's global counter has per-process visibility the
// mesh cannot, so TCP counts are per node).
func (m *TCPMesh) Messages() uint64 { return m.txMsgs.Load() }

// Bytes returns this node's modeled cross-wire byte count.
func (m *TCPMesh) Bytes() uint64 { return m.txBytes.Load() }

// Close tears the mesh down: pending and future Recvs error with
// ErrMeshClosed, the listener and all edges close.
func (m *TCPMesh) Close() error {
	m.once.Do(func() {
		close(m.closed)
		if m.ln != nil {
			m.ln.Close()
		}
		m.lmu.Lock()
		peers := append([]*meshConn(nil), m.peers...)
		m.lmu.Unlock()
		for _, pc := range peers {
			if pc != nil {
				pc.mu.Lock()
				pc.conn.Close()
				pc.mu.Unlock()
			}
		}
		m.regMu.Lock()
		for _, c := range m.regConns {
			c.Close()
		}
		m.regConns = nil
		m.regMu.Unlock()
	})
	return nil
}

var (
	_ Endpoint    = (*TCPMesh)(nil)
	_ FabricStats = (*TCPMesh)(nil)
)
