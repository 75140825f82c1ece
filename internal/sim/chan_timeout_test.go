package sim

import "testing"

func TestRecvTimeoutDelivers(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, "c")
	var got int
	var ok bool
	k.Go("recv", func(p *Proc) {
		got, ok = ch.RecvTimeout(p, 100*Millisecond)
	})
	k.Go("send", func(p *Proc) {
		p.Sleep(10 * Millisecond)
		ch.Send(p, 42)
	})
	k.Run()
	if !ok || got != 42 {
		t.Fatalf("RecvTimeout = %d,%v; want 42,true", got, ok)
	}
}

func TestRecvTimeoutExpires(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, "c")
	var ok bool
	var at Time
	k.Go("recv", func(p *Proc) {
		_, ok = ch.RecvTimeout(p, 50*Millisecond)
		at = p.Now()
	})
	k.Run()
	if ok {
		t.Fatal("timed-out receive reported a value")
	}
	if at != Time(50*Millisecond) {
		t.Fatalf("resumed at %v; want 50ms", at)
	}
}

func TestRecvTimeoutLateValueStaysBuffered(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, "c")
	var first, second bool
	var got int
	k.Go("recv", func(p *Proc) {
		_, first = ch.RecvTimeout(p, 20*Millisecond)
		// The value sent after the deadline must not be lost: a fresh
		// receive picks it up.
		got, second = ch.RecvTimeout(p, 100*Millisecond)
	})
	k.Go("send", func(p *Proc) {
		p.Sleep(60 * Millisecond)
		ch.Send(p, 7)
	})
	k.Run()
	if first {
		t.Fatal("first receive should have timed out")
	}
	if !second || got != 7 {
		t.Fatalf("second receive = %d,%v; want 7,true", got, second)
	}
}

func TestRecvTimeoutZeroBlocksLikeRecv(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, "c")
	var got int
	k.Go("recv", func(p *Proc) {
		got, _ = ch.RecvTimeout(p, 0)
	})
	k.Go("send", func(p *Proc) {
		p.Sleep(Second)
		ch.Send(p, 9)
	})
	k.Run()
	if got != 9 {
		t.Fatalf("got %d; want 9", got)
	}
}

func TestRecvTimeoutBufferedValueImmediate(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, "c")
	ch.Push(3)
	var got int
	var ok bool
	k.Go("recv", func(p *Proc) {
		got, ok = ch.RecvTimeout(p, Millisecond)
	})
	k.Run()
	if !ok || got != 3 {
		t.Fatalf("RecvTimeout = %d,%v; want 3,true", got, ok)
	}
}

// A process whose RecvTimeout expired waits on the same channel again (its
// waiter record is reused); the first wait's deadline must not cut the second
// one short, and the second receives normally.
func TestRecvTimeoutWaiterReusedAfterExpiry(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, "c")
	var first, second, third bool
	var got, got3 int
	var at Time
	k.Go("recv", func(p *Proc) {
		_, first = ch.RecvTimeout(p, 10*Millisecond)
		got, second = ch.RecvTimeout(p, 100*Millisecond)
		at = p.Now()
		got3, third = ch.RecvTimeout(p, 200*Millisecond)
	})
	k.Go("send", func(p *Proc) {
		p.Sleep(50 * Millisecond)
		ch.Send(p, 7)
		p.Sleep(100 * Millisecond) // past the second wait's deadline at 110ms
		ch.Send(p, 8)
	})
	k.Run()
	if first {
		t.Fatal("first receive should have timed out")
	}
	if !second || got != 7 || at != Time(50*Millisecond) {
		t.Fatalf("second receive = %d,%v at %v; want 7,true at 50ms", got, second, at)
	}
	if !third || got3 != 8 {
		t.Fatalf("third receive = %d,%v; want 8,true (a stale deadline cut it short)", got3, third)
	}
}
