package chaos

import (
	"fmt"
	"time"

	"repro/internal/rmtp"
)

// ServerHandle wraps an rmtp.Server so a schedule can crash and restart it
// on a stable address — the chaos stand-in for a memory-available node
// dying and rejoining. A crash loses every in-memory line, exactly like the
// real failure; the restarted server comes back empty.
type ServerHandle struct {
	addr     string
	capacity int64
	srv      *rmtp.Server
}

// StartServer launches a server on an ephemeral loopback port and remembers
// the address so restarts land on it again.
func StartServer(capacity int64) (*ServerHandle, error) {
	h := &ServerHandle{capacity: capacity}
	srv := rmtp.NewServer(capacity)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("chaos: server listen: %w", err)
	}
	h.srv = srv
	h.addr = srv.Addr()
	return h, nil
}

// Addr is the server's stable address (the proxy's upstream).
func (h *ServerHandle) Addr() string { return h.addr }

// Server returns the live server, or nil while crashed.
func (h *ServerHandle) Server() *rmtp.Server { return h.srv }

// Crash kills the server, losing all held lines. Idempotent.
func (h *ServerHandle) Crash() {
	if h.srv == nil {
		return
	}
	h.srv.Close()
	h.srv = nil
}

// Restart brings a crashed server back, empty, on the same address. The
// bind is retried briefly: the old listener's port can take a moment to
// free.
func (h *ServerHandle) Restart() error {
	if h.srv != nil {
		return nil
	}
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv := rmtp.NewServer(h.capacity)
		if err = srv.Listen(h.addr); err == nil {
			h.srv = srv
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: restarting server on %s: %w", h.addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Close shuts the server down for good.
func (h *ServerHandle) Close() {
	h.Crash()
}
