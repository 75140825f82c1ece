package repro_test

// One benchmark per table and figure of the paper's evaluation, each running
// a representative configuration of that experiment at bench scale (1/100 of
// the paper's workload) and reporting the virtual-time result alongside the
// usual wall-clock metrics. The bodies live in internal/perf so cmd/bench
// can run the same code programmatically (testing.Benchmark) and record the
// BENCH_*.json perf trajectory; these wrappers keep the historical
// `go test -bench` names. The full sweeps live in cmd/experiments; these
// benches regenerate each experiment's characteristic data point:
//
//	Table 2 → pass-count structure of the sequential mine
//	Table 3 → candidate partitioning across nodes
//	Fig. 3  → memory-node bottleneck (1 node) vs resolved (16 nodes)
//	Table 4 → per-pagefault cost at 16 memory nodes
//	Fig. 4  → disk vs simple swapping vs remote update at one limit
//	Fig. 5  → migration during a remote-update run
//
// The workload and calibration are derived once and cached in
// perf.Setup — shared across benchmarks and safe under `-count>1`.
import (
	"testing"

	"repro/internal/perf"
)

func BenchmarkTable2PassCounts(b *testing.B)       { perf.BenchTable2PassCounts(b) }
func BenchmarkTable3Partition(b *testing.B)        { perf.BenchTable3Partition(b) }
func BenchmarkFig3Bottleneck1MemNode(b *testing.B) { perf.BenchFig3Bottleneck1MemNode(b) }
func BenchmarkFig3Resolved16MemNodes(b *testing.B) { perf.BenchFig3Resolved16MemNodes(b) }
func BenchmarkTable4NoLimitBase(b *testing.B)      { perf.BenchTable4NoLimitBase(b) }
func BenchmarkTable4Fault13MB(b *testing.B)        { perf.BenchTable4Fault13MB(b) }
func BenchmarkFig4DiskSwap(b *testing.B)           { perf.BenchFig4DiskSwap(b) }
func BenchmarkFig4SimpleSwap(b *testing.B)         { perf.BenchFig4SimpleSwap(b) }
func BenchmarkFig4RemoteUpdate(b *testing.B)       { perf.BenchFig4RemoteUpdate(b) }
func BenchmarkFig5Migration(b *testing.B)          { perf.BenchFig5Migration(b) }

// Public-API macro benchmark: the quickstart path end to end.
func BenchmarkPublicAPIQuickstart(b *testing.B) { perf.BenchPublicAPIQuickstart(b) }

// Real-TCP loopback analogue of the paper's ≈2 ms ATM pagefault.
func BenchmarkRMTPStoreFetchLoopback(b *testing.B) { perf.BenchRMTPStoreFetchLoopback(b) }

// Same round trip through the miner's actual TCP swap backend (shadow
// copies, verified lease-then-delete fetches, failover rotation).
func BenchmarkTCPPagerSwapLoopback(b *testing.B) { perf.BenchTCPPagerSwapLoopback(b) }

// The miner's real swap shape on the same backend: 1,024 windowed
// store-outs, then one pipelined FetchAll of them all.
func BenchmarkTCPPagerEvictCollectLoopback(b *testing.B) { perf.BenchTCPPagerEvictCollectLoopback(b) }

// Per-pass durability tax of the supervised TCP fleet: one atomic
// checkpoint save plus the respawn-side load.
func BenchmarkCheckpointPass(b *testing.B) { perf.BenchCheckpointPass(b) }

// One fleet node's unlimited pass-2 hash table: New with 400,000 lines,
// build, then probe every candidate.
func BenchmarkMemtableBuildProbe(b *testing.B) { perf.BenchMemtableBuildProbe(b) }

// The pass-2 candidate join of the fleet-deep problem: 1,101 frequent items
// into 605,550 packed candidates.
func BenchmarkCandidateGen(b *testing.B) { perf.BenchCandidateGen(b) }

// The DES kernel under every simulated figure: one process sleeping, and two
// processes exchanging sim.Chan messages, 1,000 events per op.
func BenchmarkSimSleep(b *testing.B)        { perf.BenchSimSleep(b) }
func BenchmarkSimChanPingPong(b *testing.B) { perf.BenchSimChanPingPong(b) }
