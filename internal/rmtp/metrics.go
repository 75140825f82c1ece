package rmtp

import (
	"time"

	"repro/internal/trace"
)

// frameHeaderBytes is the wire overhead of one frame: op (1) + line (4) +
// payload length (4).
const frameHeaderBytes = 9

// Metrics are a client's cumulative transport counters. Unlike the simulated
// layer's virtual-time trace, these measure real wall-clock TCP behaviour;
// the latency histogram is in real nanoseconds.
type Metrics struct {
	Ops              uint64          // operations attempted (update batches + calls)
	UpdateBatches    uint64          // coalesced update frames shipped
	BatchedUpdates   uint64          // individual updates carried inside batches
	Calls            uint64          // request/reply exchanges completed
	Retries          uint64          // re-issued idempotent attempts
	Connects         uint64          // successful connections (first dial included)
	Errors           uint64          // transport failures observed
	BreakerTrips     uint64          // breaker transitions closed -> open
	BreakerFastFails uint64          // operations refused while the breaker was open
	BudgetDenied     uint64          // retry sequences cut short by the retry budget
	ReleaseFailures  uint64          // fetch acks that failed (lease left on the server)
	PressureSignals  uint64          // soft-watermark onsets observed in store acks
	BytesSent        uint64          // frames written, headers included
	BytesRecv        uint64          // reply frames read, headers included
	Latency          trace.Histogram // per-exchange round-trip latency
}

// Snapshot renders the counters as an ordered trace.Snapshot for attaching
// to a run recording.
func (m Metrics) Snapshot(name string) trace.Snapshot {
	return trace.Snapshot{
		Name: name,
		Fields: []trace.Field{
			{Name: "ops", Value: float64(m.Ops)},
			{Name: "update_batches", Value: float64(m.UpdateBatches)},
			{Name: "batched_updates", Value: float64(m.BatchedUpdates)},
			{Name: "calls", Value: float64(m.Calls)},
			{Name: "retries", Value: float64(m.Retries)},
			{Name: "connects", Value: float64(m.Connects)},
			{Name: "errors", Value: float64(m.Errors)},
			{Name: "breaker_trips", Value: float64(m.BreakerTrips)},
			{Name: "breaker_fast_fails", Value: float64(m.BreakerFastFails)},
			{Name: "budget_denied", Value: float64(m.BudgetDenied)},
			{Name: "release_failures", Value: float64(m.ReleaseFailures)},
			{Name: "pressure_signals", Value: float64(m.PressureSignals)},
			{Name: "bytes_sent", Value: float64(m.BytesSent)},
			{Name: "bytes_recv", Value: float64(m.BytesRecv)},
			{Name: "latency_mean_ns", Value: m.Latency.Mean()},
			{Name: "latency_p50_ns", Value: float64(m.Latency.Quantile(0.5))},
			{Name: "latency_p99_ns", Value: float64(m.Latency.Quantile(0.99))},
		},
	}
}

// Metrics returns a copy of the client's counters.
func (c *Client) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m
}

// ServerMetrics are a server's cumulative counters: operation totals,
// current occupancy, wire bytes each way (headers included), and a
// power-of-two histogram of per-request wall-clock service time.
type ServerMetrics struct {
	Stores        uint64
	Fetches       uint64
	Updates       uint64
	UpdateBatches uint64 // coalesced update frames applied
	Migrated      uint64
	Releases      uint64 // leased lines deleted on the owner's ack
	HeldLines     int64
	LeasedLines   int64 // held lines currently awaiting their owner's release
	HeldBytes     int64
	ActiveConns   int64  // live client sessions
	ConnsRejected uint64 // connections refused over MaxConns
	FrameErrors   uint64 // frames rejected by the payload cap
	Nacks         uint64 // acked stores refused over capacity
	IdleDrops     uint64 // sessions closed by IdleTimeout
	Resets        uint64 // owner resets served
	ResetLines    uint64 // lines purged by owner resets
	SoftSignals   uint64 // acked stores flagged over the soft watermark
	BytesRecv     uint64
	BytesSent     uint64
	Latency       trace.Histogram
}

// Metrics returns a copy of the server's counters.
func (s *Server) Metrics() ServerMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ServerMetrics{
		Stores:        s.stores,
		Fetches:       s.fetches,
		Updates:       s.updates,
		UpdateBatches: s.updateBatches,
		Migrated:      s.migrated,
		Releases:      s.releases,
		HeldLines:     int64(len(s.lines)),
		LeasedLines:   int64(len(s.leased)),
		HeldBytes:     s.used,
		ActiveConns:   int64(len(s.conns)),
		ConnsRejected: s.connsRejected,
		FrameErrors:   s.frameErrors,
		Nacks:         s.nacks,
		IdleDrops:     s.idleDrops,
		Resets:        s.resets,
		ResetLines:    s.resetLines,
		SoftSignals:   s.softSignals,
		BytesRecv:     s.bytesRecv,
		BytesSent:     s.bytesSent,
		Latency:       s.latency,
	}
}

// Snapshot renders the counters as an ordered trace.Snapshot. Snapshot.Map
// gives the same data in the shape expvar wants, which is how rmserverd
// publishes a live view of a running store.
func (m ServerMetrics) Snapshot(name string) trace.Snapshot {
	return trace.Snapshot{
		Name: name,
		Fields: []trace.Field{
			{Name: "stores", Value: float64(m.Stores)},
			{Name: "fetches", Value: float64(m.Fetches)},
			{Name: "updates", Value: float64(m.Updates)},
			{Name: "update_batches", Value: float64(m.UpdateBatches)},
			{Name: "migrated", Value: float64(m.Migrated)},
			{Name: "releases", Value: float64(m.Releases)},
			{Name: "held_lines", Value: float64(m.HeldLines)},
			{Name: "leased_lines", Value: float64(m.LeasedLines)},
			{Name: "held_bytes", Value: float64(m.HeldBytes)},
			{Name: "active_conns", Value: float64(m.ActiveConns)},
			{Name: "conns_rejected", Value: float64(m.ConnsRejected)},
			{Name: "frame_errors", Value: float64(m.FrameErrors)},
			{Name: "nacks", Value: float64(m.Nacks)},
			{Name: "idle_drops", Value: float64(m.IdleDrops)},
			{Name: "resets", Value: float64(m.Resets)},
			{Name: "reset_lines", Value: float64(m.ResetLines)},
			{Name: "soft_signals", Value: float64(m.SoftSignals)},
			{Name: "bytes_recv", Value: float64(m.BytesRecv)},
			{Name: "bytes_sent", Value: float64(m.BytesSent)},
			{Name: "requests", Value: float64(m.Latency.Count)},
			{Name: "latency_mean_ns", Value: m.Latency.Mean()},
			{Name: "latency_p50_ns", Value: float64(m.Latency.Quantile(0.5))},
			{Name: "latency_p99_ns", Value: float64(m.Latency.Quantile(0.99))},
		},
	}
}

// ServerSnapshot renders a server's counters as an ordered trace.Snapshot.
func ServerSnapshot(name string, s *Server) trace.Snapshot {
	return s.Metrics().Snapshot(name)
}

// observeCall records one completed request/reply exchange.
func (c *Client) observeCallLocked(start time.Time, sent, recvd int) {
	c.m.Ops++
	c.m.Calls++
	c.m.BytesSent += uint64(frameHeaderBytes + sent)
	c.m.BytesRecv += uint64(frameHeaderBytes + recvd)
	c.m.Latency.Observe(time.Since(start).Nanoseconds())
}
