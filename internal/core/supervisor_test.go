package core

import (
	"errors"
	"slices"
	"testing"
)

// TestSupervisorRestartLimit drives the supervisor with a fake respawner:
// with limit L it respawns L times at generations 1..L, a rank that exited
// cleanly costs nothing against the limit, and the next loss past the limit
// aborts the run once and is the last respawn attempted.
func TestSupervisorRestartLimit(t *testing.T) {
	const limit = 3
	var gens []int
	clean := false
	aborts := 0
	s := &supervisor{
		limit: limit,
		respawn: func(rank, gen int) error {
			if clean {
				return ErrCleanExit
			}
			gens = append(gens, gen)
			return nil
		},
		abort: func() { aborts++ },
	}
	killed := errors.New("connection lost")
	for i := 0; i < limit; i++ {
		clean = true
		s.peerLost(1, killed)
		clean = false
		s.peerLost(2, killed)
	}
	if want := []int{1, 2, 3}; !slices.Equal(gens, want) || aborts != 0 {
		t.Fatalf("after %d respawns and %d clean exits: generations %v, %d aborts; want %v, 0 aborts",
			limit, limit, gens, aborts, want)
	}
	s.peerLost(1, killed)
	if len(gens) != limit || aborts != 1 {
		t.Fatalf("loss past the limit: %d respawns, %d aborts; want %d and 1", len(gens), aborts, limit)
	}
	s.peerLost(2, killed)
	if len(gens) != limit || aborts != 1 {
		t.Fatalf("loss after the abort: %d respawns, %d aborts; want %d and 1", len(gens), aborts, limit)
	}
}

// TestSupervisorRespawnFailureAborts checks that a respawn error other than
// ErrCleanExit aborts the run at once, however much of the limit is left.
func TestSupervisorRespawnFailureAborts(t *testing.T) {
	aborts := 0
	s := &supervisor{
		limit:   8,
		respawn: func(rank, gen int) error { return errors.New("fork failed") },
		abort:   func() { aborts++ },
	}
	s.peerLost(1, errors.New("connection lost"))
	s.peerLost(2, errors.New("connection lost"))
	if aborts != 1 {
		t.Fatalf("%d aborts after a failed respawn, want 1", aborts)
	}
}
