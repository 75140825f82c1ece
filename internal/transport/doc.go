// Package transport is the cluster communication abstraction the mining
// layers program against: addressed send/receive with explicit wire-size
// accounting, per-(node,port) inbox semantics, central-barrier and
// all-to-all-gather coordination (recovery's resync is one more gather),
// and process spawning. It also holds the cluster's vocabulary: which nodes
// run the application and which lend memory (Layout), and the well-known
// ports every protocol runs over.
//
// Endpoint carries only what the backend-agnostic layers call: Self,
// BlockSize, Send and Recv.
//
// Two backends implement it:
//
//   - The simnet backend (SimEndpoint/SimSpawner) wraps the virtual-time
//     channel simulator. It is byte-identical to the pre-abstraction wiring:
//     the same messages with the same sizes cross the same simulated links in
//     the same order, which the golden byte-identical-trace test guards.
//
//   - The TCP backend (TCPMesh/RealSpawner) is a real gob-framed socket mesh
//     between miner processes, mirroring the pilot system's "mesh topology"
//     of TLI endpoints. Virtual-time charges (Proc.Work) are ignored — real
//     time is real — while the modeled wire sizes still feed the
//     per-node traffic counters so sim and TCP runs stay comparable.
//
// The remote-memory store/fetch/update/migrate surface stays a
// memtable.Pager; remotemem.Client implements it over a SimEndpoint (whose
// virtual clock and bounded receive it also uses) and remotemem.TCPPager
// over an rmtp server fleet, so the unchanged HPA pipeline mines against
// either.
package transport
