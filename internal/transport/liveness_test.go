package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// liveOpts arms a fast liveness layer for tests: 20ms heartbeats, dead after
// 8×20ms = 160ms of silence.
func liveOpts() MeshOptions {
	return MeshOptions{Heartbeat: 20 * time.Millisecond}
}

func closeAll(meshes []*TCPMesh) {
	for _, m := range meshes {
		if m != nil {
			m.Close()
		}
	}
}

// TestGatherAllSurfacesPeerLossTimely is the regression for the PR's core
// liveness guarantee: a peer whose connections reset mid-GatherAll must fail
// the survivors' collectives with a typed *PeerLostError promptly. Before the
// liveness layer this scenario hung forever (the survivors blocked in Recv on
// the dead rank's contribution).
func TestGatherAllSurfacesPeerLossTimely(t *testing.T) {
	meshes, err := LoopbackMeshes(3, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(meshes)

	type outcome struct {
		node int
		err  error
	}
	results := make(chan outcome, 2)
	for _, node := range []int{0, 1} {
		node := node
		go func() {
			p := NewRealProc()
			c := NewCoordinator(meshes[node], 3, 1)
			_, err := c.GatherAll(p, 1, "payload", 64)
			results <- outcome{node, err}
		}()
	}
	// Let the survivors park in the collective, then reset node 2's edges
	// without any goodbye — as a SIGKILLed process would.
	time.Sleep(50 * time.Millisecond)
	meshes[2].Close()

	deadline := time.After(5 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			var pl *PeerLostError
			if !errors.As(r.err, &pl) {
				t.Fatalf("node %d: GatherAll = %v, want *PeerLostError", r.node, r.err)
			}
			if pl.Rank != 2 {
				t.Errorf("node %d blamed rank %d, want 2", r.node, pl.Rank)
			}
		case <-deadline:
			t.Fatal("survivors still blocked 5s after the peer died — liveness failed to unhang the collective")
		}
	}
}

// TestHeartbeatTimeoutDetectsSilentPeer: a peer whose connection stays open
// but who stops sending anything (heartbeats included) is declared dead after
// the silence threshold, and OnPeerLost fires exactly once with its rank.
func TestHeartbeatTimeoutDetectsSilentPeer(t *testing.T) {
	lost := make(chan int, 4)
	opts := liveOpts()
	opts.OnPeerLost = func(rank int, cause error) { lost <- rank }

	m0, err := ListenMesh(2, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m0.Close()
	var m1 *TCPMesh
	var joinErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Node 1 joins WITHOUT liveness: it never sends heartbeats, so from
		// node 0's side it is a live socket that has gone completely silent.
		m1, joinErr = JoinMesh(1, 2, m0.Addr(), MeshOptions{})
	}()
	if err := m0.Join(); err != nil {
		t.Fatal(err)
	}
	<-done
	if joinErr != nil {
		t.Fatal(joinErr)
	}
	defer m1.Close()

	select {
	case rank := <-lost:
		if rank != 1 {
			t.Fatalf("OnPeerLost fired for rank %d, want 1", rank)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("silent peer never declared dead")
	}
	// The dead mark must also fail sends to the rank with the typed error.
	p := NewRealProc()
	err = m0.Send(p, 1, 3, "x", 8)
	var pl *PeerLostError
	if !errors.As(err, &pl) || pl.Rank != 1 {
		t.Fatalf("Send to dead rank = %v, want *PeerLostError{Rank: 1}", err)
	}
	// Death is observed once: no duplicate OnPeerLost for the same loss.
	select {
	case rank := <-lost:
		t.Fatalf("OnPeerLost fired twice (second rank %d)", rank)
	case <-time.After(5 * opts.Heartbeat):
	}
}

// TestRejoinRestoresTraffic walks the full revival protocol: kill rank 2,
// wait for both survivors to notice, bring a replacement up via RejoinMesh,
// clear the dead marks with WaitRejoin, and prove traffic flows both ways
// between the survivors and the replacement.
func TestRejoinRestoresTraffic(t *testing.T) {
	meshes, err := LoopbackMeshes(3, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(meshes)

	meshes[2].Close() // rank 2 "crashes"

	// Both survivors must observe the death before WaitRejoin means anything.
	for _, node := range []int{0, 1} {
		waitDead(t, meshes[node], 2)
	}

	replacement, err := RejoinMesh(2, 3, meshes[0].Addr(), liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer replacement.Close()

	for _, node := range []int{0, 1} {
		if err := meshes[node].WaitRejoin(2, 5*time.Second); err != nil {
			t.Fatalf("node %d: WaitRejoin: %v", node, err)
		}
	}

	// Survivor -> replacement and replacement -> survivor paths both work.
	p := NewRealProc()
	if err := meshes[0].Send(p, 2, 7, "from-0", 16); err != nil {
		t.Fatalf("send to replacement: %v", err)
	}
	msg, err := replacement.Recv(p, 7)
	if err != nil || msg.Payload != "from-0" || msg.From != 0 {
		t.Fatalf("replacement recv = %+v, %v", msg, err)
	}
	if err := replacement.Send(p, 1, 7, "from-2", 16); err != nil {
		t.Fatalf("send from replacement: %v", err)
	}
	msg, err = meshes[1].Recv(p, 7)
	if err != nil || msg.Payload != "from-2" || msg.From != 2 {
		t.Fatalf("survivor recv = %+v, %v", msg, err)
	}
}

// waitDead polls until the mesh has dead-marked the rank.
func waitDead(t *testing.T, m *TCPMesh, rank int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.deadTarget(rank) == nil {
		if time.Now().After(deadline) {
			t.Fatalf("node %d never dead-marked rank %d", m.Self(), rank)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWaitRejoinTimesOut: with nobody reviving the rank, WaitRejoin gives up
// at its deadline instead of blocking forever.
func TestWaitRejoinTimesOut(t *testing.T) {
	meshes, err := LoopbackMeshes(2, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(meshes)
	meshes[1].Close()
	waitDead(t, meshes[0], 1)

	start := time.Now()
	if err := meshes[0].WaitRejoin(1, 100*time.Millisecond); err == nil {
		t.Fatal("WaitRejoin succeeded with no rejoin")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("WaitRejoin took %v to give up on a 100ms budget", elapsed)
	}
}

// TestCoordinatorGenerationFilter: stale-generation control traffic is
// dropped and counted; future-generation traffic is buffered until SetGen
// catches up, then consumed normally.
func TestCoordinatorGenerationFilter(t *testing.T) {
	meshes, err := LoopbackMeshes(2, MeshOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(meshes)

	const port = 1
	c0 := NewCoordinator(meshes[0], 2, port)
	c1 := NewCoordinator(meshes[1], 2, port)
	p1 := NewRealProc()

	// Node 1 leaks a gen-0 arrival (an aborted attempt's straggler) and a
	// gen-2 arrival (a peer that recovered twice and ran ahead).
	if err := meshes[1].Send(p1, 0, port, barrierArrive{Epoch: 9, Gen: 0, From: 1}, ctrlMsgBytes); err != nil {
		t.Fatal(err)
	}
	if err := meshes[1].Send(p1, 0, port, barrierArrive{Epoch: 7, Gen: 2, From: 1}, ctrlMsgBytes); err != nil {
		t.Fatal(err)
	}

	// Generation 1: the stale arrival must not satisfy this barrier.
	c0.SetGen(1)
	c1.SetGen(1)
	barrierDone := make(chan error, 1)
	go func() { barrierDone <- c1.Barrier(p1, 5) }()
	p0 := NewRealProc()
	if err := c0.Barrier(p0, 5); err != nil {
		t.Fatalf("gen-1 barrier: %v", err)
	}
	if err := <-barrierDone; err != nil {
		t.Fatal(err)
	}
	if c0.StaleDropped() != 1 {
		t.Errorf("StaleDropped = %d after one stale arrival, want 1", c0.StaleDropped())
	}

	// Generation 2: the buffered future arrival now satisfies epoch 7
	// without node 1 sending anything else.
	c0.SetGen(2)
	if err := c0.Barrier(p0, 7); err != nil {
		t.Fatalf("gen-2 barrier from buffered arrival: %v", err)
	}
	if c0.StaleDropped() != 1 {
		t.Errorf("future-generation arrival was dropped (StaleDropped = %d)", c0.StaleDropped())
	}
}

// TestSetGenPrunesBufferedStalePayloads: payloads already buffered in pending
// when the generation advances are discarded, not replayed.
func TestSetGenPrunesBufferedStalePayloads(t *testing.T) {
	meshes, err := LoopbackMeshes(2, MeshOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(meshes)

	const port = 1
	c0 := NewCoordinator(meshes[0], 2, port)
	p0, p1 := NewRealProc(), NewRealProc()

	// A gen-0 epoch-3 arrival followed by a gen-0 epoch-5 arrival: collecting
	// epoch 5 buffers the epoch-3 one in pending.
	if err := meshes[1].Send(p1, 0, port, barrierArrive{Epoch: 3, Gen: 0, From: 1}, ctrlMsgBytes); err != nil {
		t.Fatal(err)
	}
	if err := meshes[1].Send(p1, 0, port, barrierArrive{Epoch: 5, Gen: 0, From: 1}, ctrlMsgBytes); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		c1 := NewCoordinator(meshes[1], 2, port)
		_, err := c1.recvMatching(p1, func(pl any) bool { _, ok := pl.(barrierRelease); return ok })
		done <- err
	}()
	if err := c0.Barrier(p0, 5); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	c0.SetGen(1)
	if c0.StaleDropped() != 1 {
		t.Errorf("SetGen dropped %d buffered stale payloads, want 1", c0.StaleDropped())
	}
	if len(c0.pending) != 0 {
		t.Errorf("%d stale payloads still pending after SetGen", len(c0.pending))
	}
}

// TestResyncPicksMinimumVote: the cluster replays from the MINIMUM voted
// pass, floored at pass 1 — nobody's unfinished work may be skipped, because
// node 0's bookkeeping of a pass is only durable once every node passed its
// final barrier. Every node must return the same pass.
func TestResyncPicksMinimumVote(t *testing.T) {
	for _, tc := range []struct {
		votes []int
		want  int
	}{
		{[]int{4, 2, 6}, 2},
		{[]int{3, 0, 5}, 1},
		{[]int{0}, 1},
		{[]int{7}, 7},
	} {
		n := len(tc.votes)
		t.Run(fmt.Sprint(tc.votes), func(t *testing.T) {
			eachBackend(t, n, func(t *testing.T, h *harness) {
				got := make([]int, n)
				err := h.run(t, func(p Proc, node int) error {
					var err error
					got[node], err = NewCoordinator(h.eps[node], n, 1).Resync(p, tc.votes[node])
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				for node, pass := range got {
					if pass != tc.want {
						t.Errorf("node %d resynced to pass %d, want %d", node, pass, tc.want)
					}
				}
			})
		})
	}
}
