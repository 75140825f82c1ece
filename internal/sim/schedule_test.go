package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"
)

// scheduleDigest is the SHA-256 of randomSchedule's log over seeds 1–3. Every
// virtual timestamp, every receive outcome and the dispatch order of
// same-instant wake-ups feed it, so any change to event ordering shows here.
const scheduleDigest = "5552d1f5bb1186a82ef817d434af7c999590113c92555d8b4ec9e495da711314"

// randomSchedule runs one seeded mix of every blocking primitive: Sleep,
// SleepUntil, Work on a bound CPU, Chan Send/Recv/RecvTimeout (expiring and
// delivering) and contention on a capacity-2 Resource. Each process draws its
// steps from its own generator, so the log depends on the kernel's
// scheduling alone. Each line is "now proc step what".
func randomSchedule(seed int64, h hash.Hash) {
	k := NewKernel()
	cpu := NewResource(k, "cpu", 1)
	disk := NewResource(k, "disk", 2)
	chans := []*Chan[int]{NewChan[int](k, "a"), NewChan[int](k, "b")}
	logf := func(p *Proc, step int, format string, args ...any) {
		fmt.Fprintf(h, "%d %s %d ", p.Now(), p.Name(), step)
		fmt.Fprintf(h, format, args...)
		h.Write([]byte{'\n'})
	}
	const procs, steps = 8, 150
	for i := 0; i < procs; i++ {
		rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
		k.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			if i%2 == 0 {
				p.BindCPU(cpu)
			}
			for s := 0; s < steps; s++ {
				us := Duration(rng.Intn(500)) * Microsecond
				c := chans[rng.Intn(len(chans))]
				switch op := rng.Intn(8); op {
				case 0:
					p.Sleep(us)
					logf(p, s, "sleep")
				case 1:
					p.Work(us)
					p.Work(Duration(rng.Intn(50)) * Microsecond)
					logf(p, s, "work")
				case 2:
					c.Send(p, i*steps+s)
					logf(p, s, "send %s", c.Name())
				case 3, 4:
					v, ok := c.RecvTimeout(p, us+Microsecond)
					logf(p, s, "recvt %s %d %v", c.Name(), v, ok)
				case 5:
					disk.Use(p, us)
					logf(p, s, "disk q=%d", disk.QueueLen())
				case 6:
					p.SleepUntil(p.Now().Add(us / 2))
					logf(p, s, "until")
				case 7:
					if v, ok := c.TryRecv(p); ok {
						logf(p, s, "try %s %d", c.Name(), v)
						continue
					}
					disk.Acquire(p)
					p.Work(us)
					disk.Release(p)
					logf(p, s, "hold")
				}
			}
		})
	}
	// A feeder keeps plain Recv callers from starving for good.
	k.Go("feed", func(p *Proc) {
		for s := 0; s < steps; s++ {
			p.Sleep(700 * Microsecond)
			chans[s%2].Send(p, -s)
			logf(p, s, "feed")
		}
	})
	k.Go("drain", func(p *Proc) {
		for s := 0; ; s++ {
			v := chans[0].Recv(p)
			logf(p, s, "drain %d", v)
		}
	})
	end := k.Run()
	fmt.Fprintf(h, "end %d events %d procs %d cpu %d disk %d\n",
		end, k.Events(), k.Procs(), cpu.BusyTime(), disk.Acquires())
	k.Shutdown()
}

// TestRandomScheduleDigest pins the dispatch of a seeded random schedule that
// covers RecvTimeout expiry and multi-waiter Resource queues, which the
// mining digests in internal/core do not reach.
func TestRandomScheduleDigest(t *testing.T) {
	h := sha256.New()
	for seed := int64(1); seed <= 3; seed++ {
		randomSchedule(seed, h)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != scheduleDigest {
		t.Fatalf("schedule digest %s, want %s", got, scheduleDigest)
	}
}
