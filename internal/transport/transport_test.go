package transport

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// harness abstracts one backend for the conformance suite: a set of
// endpoints plus a way to run one function per node to completion.
type harness struct {
	name string
	eps  []Endpoint
	// run executes fn once per node (cooperatively under the simulated
	// kernel, as real goroutines on TCP) and returns the first error.
	run   func(t *testing.T, fn func(p Proc, node int) error) error
	close func()
}

func simHarness(t *testing.T, n int) *harness {
	t.Helper()
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.PaperATM(), n)
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i] = NewSimEndpoint(nw, i)
	}
	return &harness{
		name: "sim",
		eps:  eps,
		run: func(t *testing.T, fn func(p Proc, node int) error) error {
			var mu sync.Mutex
			var first error
			for i := 0; i < n; i++ {
				i := i
				k.Go(fmt.Sprintf("node-%d", i), func(p *sim.Proc) {
					if err := fn(p, i); err != nil {
						mu.Lock()
						if first == nil {
							first = err
						}
						mu.Unlock()
					}
				})
			}
			k.Run()
			return first
		},
		close: func() {},
	}
}

func tcpHarness(t *testing.T, n int) *harness {
	t.Helper()
	meshes, err := LoopbackMeshes(n, MeshOptions{})
	if err != nil {
		t.Fatalf("loopback meshes: %v", err)
	}
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i] = meshes[i]
	}
	return &harness{
		name: "tcp",
		eps:  eps,
		run: func(t *testing.T, fn func(p Proc, node int) error) error {
			sp := &RealSpawner{}
			handles := make([]Handle, n)
			for i := 0; i < n; i++ {
				i := i
				handles[i] = sp.Go(i, fmt.Sprintf("node-%d", i), func(p Proc) error {
					return fn(p, i)
				})
			}
			sp.WaitAll()
			wp := NewRealProc()
			for _, h := range handles {
				if err := h.Wait(wp); err != nil {
					return err
				}
			}
			return nil
		},
		close: func() {
			for _, m := range meshes {
				m.Close()
			}
		},
	}
}

// eachBackend runs one conformance test against both transports.
func eachBackend(t *testing.T, n int, test func(t *testing.T, h *harness)) {
	t.Run("sim", func(t *testing.T) {
		h := simHarness(t, n)
		defer h.close()
		test(t, h)
	})
	t.Run("tcp", func(t *testing.T) {
		h := tcpHarness(t, n)
		defer h.close()
		test(t, h)
	})
}

func TestSendRecvPreservesOrderAndPayload(t *testing.T) {
	const n = 2
	const msgs = 20
	eachBackend(t, n, func(t *testing.T, h *harness) {
		err := h.run(t, func(p Proc, node int) error {
			if node == 0 {
				for i := 0; i < msgs; i++ {
					if err := h.eps[0].Send(p, 1, 3, i, 100); err != nil {
						return err
					}
				}
				return nil
			}
			for i := 0; i < msgs; i++ {
				m, err := h.eps[1].Recv(p, 3)
				if err != nil {
					return err
				}
				if m.From != 0 || m.Port != 3 {
					return fmt.Errorf("message %d from %d port %d", i, m.From, m.Port)
				}
				if got := m.Payload.(int); got != i {
					return fmt.Errorf("message %d carried %d: reordered", i, got)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestPortsAreIndependentInboxes(t *testing.T) {
	eachBackend(t, 2, func(t *testing.T, h *harness) {
		err := h.run(t, func(p Proc, node int) error {
			if node == 0 {
				// Port 1's message is sent first but must not block port 2.
				if err := h.eps[0].Send(p, 1, 1, "slow", 10); err != nil {
					return err
				}
				return h.eps[0].Send(p, 1, 2, "fast", 10)
			}
			m2, err := h.eps[1].Recv(p, 2)
			if err != nil {
				return err
			}
			m1, err := h.eps[1].Recv(p, 1)
			if err != nil {
				return err
			}
			if m2.Payload.(string) != "fast" || m1.Payload.(string) != "slow" {
				return fmt.Errorf("ports mixed: port1=%v port2=%v", m1.Payload, m2.Payload)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestSelfSendBypassesWireAccounting(t *testing.T) {
	eachBackend(t, 2, func(t *testing.T, h *harness) {
		stats, ok := h.eps[0].(FabricStats)
		var tcp *TCPMesh
		if m, isMesh := h.eps[0].(*TCPMesh); isMesh {
			tcp = m
		}
		err := h.run(t, func(p Proc, node int) error {
			if node != 0 {
				return nil
			}
			if err := h.eps[0].Send(p, 0, 5, "loop", 999); err != nil {
				return err
			}
			m, err := h.eps[0].Recv(p, 5)
			if err != nil {
				return err
			}
			if m.Payload.(string) != "loop" || m.From != 0 {
				return fmt.Errorf("self-send delivered %v from %d", m.Payload, m.From)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Self-sends are delivered but never counted as fabric traffic on
		// either backend (the sim network models them as local handoffs).
		if tcp != nil {
			if tcp.Messages() != 0 || tcp.Bytes() != 0 {
				t.Errorf("self-send counted: %d msgs %d B", tcp.Messages(), tcp.Bytes())
			}
		} else if ok {
			msgs, bytes := stats.Messages(), stats.Bytes()
			if msgs != 0 || bytes != 0 {
				t.Errorf("self-send counted: %d msgs %d B", msgs, bytes)
			}
		}
	})
}

func TestWireAccountingUsesModeledSize(t *testing.T) {
	eachBackend(t, 2, func(t *testing.T, h *harness) {
		err := h.run(t, func(p Proc, node int) error {
			if node == 0 {
				return h.eps[0].Send(p, 1, 0, "x", 12345)
			}
			_, err := h.eps[1].Recv(p, 0)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if m, ok := h.eps[0].(*TCPMesh); ok {
			if m.Messages() != 1 || m.Bytes() != 12345 {
				t.Errorf("tx counters = %d msgs %d B, want 1/12345", m.Messages(), m.Bytes())
			}
		}
	})
}

// TestRecvTimeoutExpiresAndDelivers covers the simulated endpoint only:
// RecvTimeout serves the simulator's remote-memory client, and the TCP mesh
// has no bounded receive.
func TestRecvTimeoutExpiresAndDelivers(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		h := simHarness(t, 2)
		ep := h.eps[0].(*SimEndpoint)
		err := h.run(t, func(p Proc, node int) error {
			if node == 0 {
				// Expire first: nothing has been sent on port 7.
				_, ok, err := ep.RecvTimeout(p, 7, 10*sim.Millisecond)
				if err != nil {
					return err
				}
				if ok {
					return fmt.Errorf("timeout recv on empty port returned a message")
				}
				// Then deliver: node 1 sends after our first timeout.
				m, ok, err := ep.RecvTimeout(p, 7, 10*sim.Second)
				if err != nil {
					return err
				}
				if !ok || m.Payload.(string) != "late" {
					return fmt.Errorf("timed recv = %v ok=%v", m.Payload, ok)
				}
				return nil
			}
			// Past the receiver's first (expiring) timeout window.
			p.Sleep(50 * sim.Millisecond)
			return h.eps[1].Send(p, 0, 7, "late", 10)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 4
	eachBackend(t, n, func(t *testing.T, h *harness) {
		coords := make([]*Coordinator, n)
		for i := range coords {
			coords[i] = NewCoordinator(h.eps[i], n, 9)
		}
		arrived := make([]bool, n)
		var mu sync.Mutex
		err := h.run(t, func(p Proc, node int) error {
			p.Sleep(sim.Duration(node*10) * sim.Millisecond) // skewed arrivals
			mu.Lock()
			arrived[node] = true
			mu.Unlock()
			if err := coords[node].Barrier(p, 1); err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			for j, a := range arrived {
				if !a {
					return fmt.Errorf("node %d passed the barrier before node %d arrived", node, j)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestBarrierSingleNodeNoOp(t *testing.T) {
	eachBackend(t, 1, func(t *testing.T, h *harness) {
		coord := NewCoordinator(h.eps[0], 1, 9)
		err := h.run(t, func(p Proc, node int) error {
			return coord.Barrier(p, 1)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestGatherAllExchangesPayloads(t *testing.T) {
	const n = 3
	eachBackend(t, n, func(t *testing.T, h *harness) {
		coords := make([]*Coordinator, n)
		for i := range coords {
			coords[i] = NewCoordinator(h.eps[i], n, 9)
		}
		results := make([][]any, n)
		err := h.run(t, func(p Proc, node int) error {
			got, err := coords[node].GatherAll(p, 1, node*100, 64)
			results[node] = got
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if len(results[i]) != n {
				t.Fatalf("node %d gathered %d payloads", i, len(results[i]))
			}
			for j := 0; j < n; j++ {
				if results[i][j].(int) != j*100 {
					t.Errorf("node %d slot %d = %v, want %d", i, j, results[i][j], j*100)
				}
			}
		}
	})
}

func TestGatherSingleNode(t *testing.T) {
	eachBackend(t, 1, func(t *testing.T, h *harness) {
		coord := NewCoordinator(h.eps[0], 1, 9)
		err := h.run(t, func(p Proc, node int) error {
			got, err := coord.GatherAll(p, 1, "x", 10)
			if err != nil {
				return err
			}
			if len(got) != 1 || got[0].(string) != "x" {
				return fmt.Errorf("solo gather = %v", got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestConsecutiveCollectivesWithSkew(t *testing.T) {
	// Nodes race ahead into the next epoch; the reorder buffer must keep
	// each collective consistent.
	const n = 4
	const rounds = 6
	eachBackend(t, n, func(t *testing.T, h *harness) {
		coords := make([]*Coordinator, n)
		for i := range coords {
			coords[i] = NewCoordinator(h.eps[i], n, 9)
		}
		sums := make([]int, n)
		err := h.run(t, func(p Proc, node int) error {
			for r := 0; r < rounds; r++ {
				p.Sleep(sim.Duration((node*7+r*3)%11) * sim.Millisecond)
				got, err := coords[node].GatherAll(p, r*2, node+r, 64)
				if err != nil {
					return err
				}
				for _, v := range got {
					sums[node] += v.(int)
				}
				if err := coords[node].Barrier(p, r*2+1); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Each round's gather sum = sum(i) + n*r = 6 + 4r for n=4.
		want := 0
		for r := 0; r < rounds; r++ {
			want += 6 + n*r
		}
		for i, got := range sums {
			if got != want {
				t.Errorf("node %d accumulated %d, want %d (collective mixed epochs)", i, got, want)
			}
		}
	})
}

func TestMeshCloseUnblocksReceivers(t *testing.T) {
	meshes, err := LoopbackMeshes(2, MeshOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer meshes[1].Close()
	done := make(chan error, 1)
	go func() {
		p := NewRealProc()
		_, err := meshes[0].Recv(p, 0)
		done <- err
	}()
	meshes[0].Close()
	if err := <-done; err != ErrMeshClosed {
		t.Fatalf("Recv on closed mesh = %v, want ErrMeshClosed", err)
	}
	// Sends on a closed mesh fail rather than hang.
	if err := meshes[0].Send(NewRealProc(), 1, 0, "x", 1); err == nil {
		t.Error("Send on closed mesh succeeded")
	}
}

func TestMeshMultiProcessJoin(t *testing.T) {
	// Exercise the real rendezvous path (ListenMesh + JoinMesh) rather than
	// the LoopbackMeshes helper: three "processes" join through node 0.
	const n = 3
	root, err := ListenMesh(n, "127.0.0.1:0", MeshOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := root.Addr()
	var wg sync.WaitGroup
	meshes := make([]*TCPMesh, n)
	errs := make([]error, n)
	meshes[0] = root
	for i := 1; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			meshes[i], errs[i] = JoinMesh(i, n, addr, MeshOptions{})
		}()
	}
	if err := root.Join(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d join: %v", i, errs[i])
		}
	}
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()
	// Every node sends to every other; everyone must hear everyone.
	var rwg sync.WaitGroup
	fail := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			p := NewRealProc()
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				if err := meshes[i].Send(p, j, 2, i, 8); err != nil {
					fail <- err
					return
				}
			}
			seen := map[int]bool{}
			for j := 0; j < n-1; j++ {
				m, err := meshes[i].Recv(p, 2)
				if err != nil {
					fail <- err
					return
				}
				if m.Payload.(int) != m.From {
					fail <- fmt.Errorf("node %d: payload %v from %d", i, m.Payload, m.From)
					return
				}
				seen[m.From] = true
			}
			if len(seen) != n-1 {
				fail <- fmt.Errorf("node %d heard %d peers", i, len(seen))
			}
		}()
	}
	rwg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
}

func TestLayout(t *testing.T) {
	l := Layout{AppNodes: 3, MemNodes: 2}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.Total() != 5 {
		t.Errorf("Total = %d", l.Total())
	}
	if got := l.AppIDs(); len(got) != 3 || got[2] != 2 {
		t.Errorf("AppIDs = %v", got)
	}
	if got := l.MemIDs(); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("MemIDs = %v", got)
	}
	if (Layout{AppNodes: 0}).Validate() == nil {
		t.Error("zero app nodes accepted")
	}
	if (Layout{AppNodes: 1, MemNodes: -1}).Validate() == nil {
		t.Error("negative mem nodes accepted")
	}
}
