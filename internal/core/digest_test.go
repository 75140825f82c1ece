package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/memtable"
	"repro/internal/quest"
	"repro/internal/trace"
)

// TestEventStreamDigests pins the simulator's full event stream (every
// kind, as rec.WriteCSV writes it) to SHA-256 digests.
// TestTraceGoldenDeterminism only compares two runs of the same build; this
// test catches any change that moves the simulated model at all, such as a
// table layout change that admits or evicts a line differently. The three
// limited configurations run 7 passes, so k ≥ 3 probes of lines that hold no
// candidate happen under a limit.
//
// A digest mismatch means an event moved: find the first diverging CSV line
// against the previous build before touching a constant here.
func TestEventStreamDigests(t *testing.T) {
	limited := func(policy memtable.Policy) Config {
		cfg := smallConfig()
		cfg.LimitBytes = 1200
		cfg.Policy = policy
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"traced", tracedConfig(), "cca49d172c940c7d65342c9c6f9790b7d58534bcf738c5d2e74215bee26f85d1"},
		{"simple-swap", limited(memtable.SimpleSwap), "a322fc7f046658a3026a74458365c3d5f3624fe00cac167388d84f00d260b505"},
		{"remote-update", limited(memtable.RemoteUpdate), "1e50a411158479161ed6a45a409e4f2f000ae209cbc315efe4e3fab72d432c77"},
		{"unlimited", smallConfig(), "5b14e93a6c91c086d4a28a49420be360290fbbfbe2a0267e39bf007ef32ee524"},
	}
	txns := quest.Generate(smallWorkload())
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := trace.NewRecorder()
			c.cfg.Trace = rec
			mustRun(t, c.cfg, txns)
			h := sha256.New()
			if err := rec.WriteCSV(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("event stream digest = %s, want %s (%d events)", got, c.want, rec.Len())
			}
		})
	}
}
