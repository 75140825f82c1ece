package simnet

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Config sets the network's timing parameters. The defaults reproduce the
// paper's measured characteristics (§5.2): point-to-point round trip
// ≈ 0.5 ms and effective throughput ≈ 120 Mbps on nominal 155 Mbps links.
type Config struct {
	// Latency is the one-way propagation + protocol latency per message.
	Latency sim.Duration
	// BitsPerSecond is the effective link throughput.
	BitsPerSecond float64
	// BlockSize is the message block size in bytes; larger payloads are
	// segmented into ceil(size/BlockSize) blocks.
	BlockSize int
	// PerBlockOverhead is CPU/protocol time charged to the sender per block
	// (TLI write, IP-over-ATM encapsulation, cell segmentation setup).
	PerBlockOverhead sim.Duration
}

// PaperATM returns the calibrated configuration for the pilot system's
// 155 Mbps UTP-5 ATM LAN.
func PaperATM() Config {
	return Config{
		Latency:          250 * sim.Microsecond, // RTT ≈ 0.5 ms
		BitsPerSecond:    120e6,                 // measured effective throughput
		BlockSize:        4096,                  // paper's message block size
		PerBlockOverhead: 20 * sim.Microsecond,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.Latency < 0:
		return fmt.Errorf("simnet: negative latency")
	case c.BitsPerSecond <= 0:
		return fmt.Errorf("simnet: nonpositive bandwidth")
	case c.BlockSize < 1:
		return fmt.Errorf("simnet: block size must be >= 1")
	case c.PerBlockOverhead < 0:
		return fmt.Errorf("simnet: negative per-block overhead")
	}
	return nil
}

// TxTime returns how long the sender's NIC is occupied transmitting a
// payload of the given size.
func (c Config) TxTime(bytes int) sim.Duration {
	if bytes <= 0 {
		bytes = 1
	}
	blocks := (bytes + c.BlockSize - 1) / c.BlockSize
	wire := sim.DurationOfSeconds(float64(bytes) * 8 / c.BitsPerSecond)
	return wire + sim.Duration(blocks)*c.PerBlockOverhead
}

// Message is a delivered network message. Payload crosses the simulated wire
// by reference (this is a single-process simulation), but Size is the
// accounted wire size and determines all timing.
type Message struct {
	From, To int
	Port     int
	Payload  any
	Size     int
	SentAt   sim.Time
}

// Port identifiers used by the cluster layer are arbitrary small ints.

type nodeIface struct {
	tx      *sim.Resource
	inboxes map[int]*sim.Chan[Message]
	txBytes uint64
	txMsgs  uint64
	rxMsgs  uint64
}

// Network is a simulated cluster interconnect.
type Network struct {
	k      *sim.Kernel
	cfg    Config
	nodes  []*nodeIface
	faults *faultState
	rec    *trace.Recorder

	totalMsgs  uint64
	totalBytes uint64
	dropped    uint64
	delayed    uint64
}

// New creates a network of n nodes on kernel k.
func New(k *sim.Kernel, cfg Config, n int) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if n < 1 {
		panic("simnet: need at least one node")
	}
	nw := &Network{k: k, cfg: cfg, nodes: make([]*nodeIface, n)}
	for i := range nw.nodes {
		nw.nodes[i] = &nodeIface{
			tx:      sim.NewResource(k, fmt.Sprintf("nic-tx-%d", i), 1),
			inboxes: make(map[int]*sim.Chan[Message]),
		}
	}
	return nw
}

// SetRecorder attaches a trace recorder (nil detaches). Transmissions emit
// KSend events (duration = NIC occupancy including queueing) and fault-layer
// discards emit KDrop.
func (n *Network) SetRecorder(rec *trace.Recorder) { n.rec = rec }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Now returns the kernel's current virtual time (for components that need a
// timestamp outside a process context).
func (n *Network) Now() sim.Time { return n.k.Now() }

// Inbox returns (creating on first use) the delivery queue for a node/port.
func (n *Network) Inbox(node, port int) *sim.Chan[Message] {
	nd := n.nodes[node]
	ch, ok := nd.inboxes[port]
	if !ok {
		ch = sim.NewChan[Message](n.k, fmt.Sprintf("inbox-%d/%d", node, port))
		nd.inboxes[port] = ch
	}
	return ch
}

// Send transmits payload of the given wire size from the calling process
// (which must be running on node from). The caller blocks for the NIC
// occupancy (transmission time behind any queued sends); delivery happens
// Latency later without blocking the caller. Sending to self bypasses the
// wire but still costs the per-block overhead.
func (n *Network) Send(p *sim.Proc, from, to, port int, payload any, size int) {
	if to < 0 || to >= len(n.nodes) {
		panic(fmt.Sprintf("simnet: send to unknown node %d", to))
	}
	src := n.nodes[from]
	msg := Message{From: from, To: to, Port: port, Payload: payload, Size: size}
	if from == to {
		blocks := (size + n.cfg.BlockSize - 1) / n.cfg.BlockSize
		if blocks < 1 {
			blocks = 1
		}
		p.Sleep(sim.Duration(blocks) * n.cfg.PerBlockOverhead)
		msg.SentAt = p.Now()
		n.deliver(msg)
		return
	}
	start := p.Now()
	src.tx.Acquire(p)
	p.Sleep(n.cfg.TxTime(size))
	src.tx.Release(p)
	msg.SentAt = p.Now()
	src.txBytes += uint64(size)
	src.txMsgs++
	n.totalMsgs++
	n.totalBytes += uint64(size)
	if n.rec.Wants(trace.KSend) {
		n.rec.Emit(trace.Event{
			At: start, Dur: msg.SentAt.Sub(start), Node: from,
			Kind: trace.KSend, Line: -1, Peer: to, Bytes: int64(size),
		})
	}
	lat := n.cfg.Latency
	if n.faults != nil {
		ok, extra := n.faults.outcome(from, to, msg.SentAt)
		if !ok {
			n.dropped++
			n.drop(msg, "fault-layer")
			return
		}
		if extra > 0 {
			n.delayed++
			lat += extra
		}
	}
	n.k.After(lat, func() { n.deliver(msg) })
}

func (n *Network) drop(msg Message, why string) {
	if n.rec.Wants(trace.KDrop) {
		n.rec.Emit(trace.Event{
			At: n.k.Now(), Node: msg.From, Kind: trace.KDrop,
			Name: why, Line: -1, Peer: msg.To, Bytes: int64(msg.Size),
		})
	}
}

func (n *Network) deliver(msg Message) {
	if n.faults != nil && n.faults.crashed[msg.To] {
		// Receiver crashed while the message was in flight.
		n.dropped++
		n.drop(msg, "crashed-receiver")
		return
	}
	nd := n.nodes[msg.To]
	nd.rxMsgs++
	ch, ok := nd.inboxes[msg.Port]
	if !ok {
		ch = sim.NewChan[Message](n.k, fmt.Sprintf("inbox-%d/%d", msg.To, msg.Port))
		nd.inboxes[msg.Port] = ch
	}
	ch.Push(msg)
}

// Broadcast sends the payload to every node except the sender, one unicast
// per destination (the driver supported no multicast; "the process
// broadcasts it to all application execution nodes" is a send loop).
func (n *Network) Broadcast(p *sim.Proc, from, port int, payload any, size int) {
	for to := range n.nodes {
		if to == from {
			continue
		}
		n.Send(p, from, to, port, payload, size)
	}
}

// Messages returns the total cross-wire message count.
func (n *Network) Messages() uint64 { return n.totalMsgs }

// Bytes returns the total cross-wire byte count.
func (n *Network) Bytes() uint64 { return n.totalBytes }

// NodeTx returns messages and bytes transmitted by one node.
func (n *Network) NodeTx(node int) (msgs, bytes uint64) {
	return n.nodes[node].txMsgs, n.nodes[node].txBytes
}

// NodeRx returns messages received by one node.
func (n *Network) NodeRx(node int) uint64 { return n.nodes[node].rxMsgs }

// TxBusy returns the cumulative busy time of a node's transmit NIC.
func (n *Network) TxBusy(node int) sim.Duration { return n.nodes[node].tx.BusyTime() }

// TxQueueLen returns how many sends are waiting for (or holding) a node's
// transmit NIC right now — the queue-depth gauge the tracer samples.
func (n *Network) TxQueueLen(node int) int {
	nd := n.nodes[node]
	return nd.tx.QueueLen() + nd.tx.InUse()
}
