package sim

import (
	"testing"
	"testing/quick"
)

func TestChanSendThenRecv(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	var got int
	k.Go("producer", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		c.Send(p, 42)
	})
	k.Go("consumer", func(p *Proc) {
		got = c.Recv(p)
		if p.Now() != Time(5*Millisecond) {
			t.Errorf("consumer resumed at %v, want 5ms", p.Now())
		}
	})
	k.Run()
	if got != 42 {
		t.Errorf("received %d, want 42", got)
	}
}

func TestChanBuffersWhenNoWaiter(t *testing.T) {
	k := NewKernel()
	c := NewChan[string](k, "c")
	var got []string
	k.Go("producer", func(p *Proc) {
		c.Send(p, "a")
		c.Send(p, "b")
		c.Send(p, "c")
	})
	k.Go("consumer", func(p *Proc) {
		p.Sleep(Millisecond)
		for i := 0; i < 3; i++ {
			got = append(got, c.Recv(p))
		}
	})
	k.Run()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("FIFO violated: %v", got)
	}
	if c.Len() != 0 {
		t.Errorf("channel left with %d buffered values", c.Len())
	}
}

func TestChanMultipleWaitersFIFO(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.Go("w", func(p *Proc) {
			p.Sleep(Duration(i) * Microsecond) // stagger registration order
			v := c.Recv(p)
			order = append(order, v*10+i)
		})
	}
	k.Go("producer", func(p *Proc) {
		p.Sleep(Millisecond)
		for v := 1; v <= 3; v++ {
			c.Send(p, v)
		}
	})
	k.Run()
	// Waiter i must receive value i+1 (FIFO pairing).
	want := []int{10, 21, 32}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("waiter pairing = %v, want %v", order, want)
		}
	}
}

func TestChanPushFromEventContext(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	var got int
	var at Time
	k.Go("consumer", func(p *Proc) {
		got = c.Recv(p)
		at = p.Now()
	})
	k.After(7*Millisecond, func() { c.Push(99) })
	k.Run()
	if got != 99 || at != Time(7*Millisecond) {
		t.Errorf("got %d at %v, want 99 at 7ms", got, at)
	}
}

func TestChanTryRecv(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	k.Go("p", func(p *Proc) {
		if _, ok := c.TryRecv(p); ok {
			t.Error("TryRecv on empty chan returned ok")
		}
		c.Send(p, 5)
		v, ok := c.TryRecv(p)
		if !ok || v != 5 {
			t.Errorf("TryRecv = %d,%v; want 5,true", v, ok)
		}
	})
	k.Run()
}

func TestChanSentCounter(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	k.Go("p", func(p *Proc) {
		for i := 0; i < 12; i++ {
			c.Send(p, i)
		}
	})
	k.Run()
	if c.Sent() != 12 {
		t.Errorf("Sent() = %d, want 12", c.Sent())
	}
}

// Property: any sequence of sends is received in order with nothing lost or
// duplicated, regardless of how sends interleave with receives in time.
func TestChanFIFOPropertyQuick(t *testing.T) {
	prop := func(vals []int16, gap uint8) bool {
		k := NewKernel()
		c := NewChan[int16](k, "c")
		var got []int16
		k.Go("producer", func(p *Proc) {
			for _, v := range vals {
				p.Sleep(Duration(gap%5) * Microsecond)
				c.Send(p, v)
			}
		})
		k.Go("consumer", func(p *Proc) {
			for range vals {
				p.Sleep(Duration((gap/5)%7) * Microsecond)
				got = append(got, c.Recv(p))
			}
		})
		k.Run()
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// A buffer that never drains keeps FIFO order while Push compacts it.
func TestChanBufferCompactsInOrder(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	next, want := 0, 0
	for ; next < 3; next++ {
		c.Push(next)
	}
	k.Go("r", func(p *Proc) {
		for i := 0; i < 100; i++ {
			if v := c.Recv(p); v != want {
				t.Errorf("received %d, want %d", v, want)
				return
			}
			want++
			c.Push(next)
			next++
			if c.Len() != 3 {
				t.Errorf("Len = %d, want 3", c.Len())
				return
			}
		}
	})
	k.Run()
	if cap(c.buf) > 8 {
		t.Errorf("buffer of 3 values grew to capacity %d", cap(c.buf))
	}
}
