package hpa

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
)

// reviverEndpoint is a sink endpoint that can wait for lost peers; its
// WaitRejoin only counts the call and fails, ending recovery there.
type reviverEndpoint struct {
	sinkEndpoint
	waits int
}

var errNoRejoin = errors.New("no rejoin")

func (e *reviverEndpoint) WaitRejoin(rank int, timeout time.Duration) error {
	e.waits++
	return errNoRejoin
}

// TestRecoverHonoursRestartLimit checks the node side of the restart limit:
// a peer loss within the limit waits for the rank's replacement, the first
// loss past it fails the node without waiting, and an error that is not a
// peer loss (or an endpoint that cannot revive peers) is returned as is.
func TestRecoverHonoursRestartLimit(t *testing.T) {
	const limit = 2
	lost := &transport.PeerLostError{Rank: 1, Cause: errors.New("connection lost")}
	node := func(ep transport.Endpoint, recoveries int) *appNode {
		return &appNode{
			id: 0,
			env: Env{
				Layout:       transport.Layout{AppNodes: 2},
				Links:        []transport.Endpoint{ep, nil},
				Coords:       make([]*transport.Coordinator, 2),
				RestartLimit: limit,
			},
			recoveries: recoveries,
		}
	}
	p := transport.NewRealProc()

	ep := &reviverEndpoint{}
	if _, err := node(ep, limit-1).recover(p, 2, lost); !errors.Is(err, errNoRejoin) || ep.waits != 1 {
		t.Fatalf("loss %d of %d: err %v after %d waits, want the rejoin error after 1", limit, limit, err, ep.waits)
	}
	ep = &reviverEndpoint{}
	_, err := node(ep, limit).recover(p, 2, lost)
	if err == nil || !strings.Contains(err.Error(), "exceeded 2 recoveries") || ep.waits != 0 {
		t.Fatalf("loss past the limit: err %v after %d waits, want exceeded 2 recoveries after 0", err, ep.waits)
	}
	if !errors.Is(err, lost) {
		t.Fatalf("loss past the limit: %v does not wrap the peer loss", err)
	}

	other := errors.New("disk full")
	if _, err := node(&reviverEndpoint{}, 0).recover(p, 2, other); err != other {
		t.Fatalf("non-loss error came back as %v", err)
	}
	if _, err := node(&sinkEndpoint{}, 0).recover(p, 2, lost); err != lost {
		t.Fatalf("loss on an endpoint that cannot revive peers came back as %v", err)
	}
}
