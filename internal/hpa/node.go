package hpa

import (
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/apriori"
	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/itemset"
	"repro/internal/memtable"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
)

func init() {
	// The TCP mesh carries these by gob; the simulated fabric by reference.
	gob.Register(dataBlock{})
	gob.Register(dataDone{})
	gob.Register(localCount{})
	gob.Register(largeSet{})
}

// Wire formats for the counting phase.

// dataBlock is a batch of probes shipped in one message block: probe i
// looks up the k-itemset whose canonical key (itemset.AppendKey, 4·k bytes)
// is Keys[4k·i : 4k·(i+1)] in global hash line Lines[i]. Gen is the sender's
// recovery generation: a receiver replaying a pass after a peer loss drops
// blocks from the aborted attempt instead of double counting them. The
// simulated fabric delivers a block by reference, so a sender never writes
// to a block's slices once it has shipped it.
type dataBlock struct {
	From  int
	Gen   int
	Lines []int32
	Keys  []byte
}

// dataDone marks the end of a sender's transaction scan.
type dataDone struct {
	From int
	Gen  int
}

const (
	blockHeaderBytes    = 16
	probeItemWireBytes  = memtable.EntryWireBytes
	countWireBytesPer   = 12 // pass-1 gather: item id + count
	largeWireBytesPerKB = 16 // per large itemset in gather payloads (k items + count)
)

// blockItems is how many probes fill one message block of blockSize bytes.
func blockItems(blockSize int) int {
	return max(1, (blockSize-blockHeaderBytes)/probeItemWireBytes)
}

// localCount is a pass-1 gather payload.
type localCount struct {
	Items  []itemset.Item
	Counts []int
}

// largeSet is a pass-k gather payload: this node's locally-determined large
// itemsets with their global counts.
type largeSet struct {
	Sets   []itemset.Itemset
	Counts []int
}

// appNode is the per-node state of a run.
type appNode struct {
	id     int
	env    Env
	params Params
	pd     *Pending

	// Recovery state. gen is the node's recovery generation (how many peer
	// deaths it has observed and resynced past); largeHist[k] is pass k's
	// global frequent itemsets, kept so an interrupted pass can be replayed
	// (its prevLarge input is largeHist[k-1]). abortSend tells an in-flight
	// sender to stop scanning after its receiver failed.
	gen        int
	largeHist  map[int][]itemset.Itemset
	abortSend  atomic.Bool
	recoveries int
	passStart  sim.Time
	resil      stats.Resilience
}

// lineOf maps a canonical itemset hash to its global hash line.
func (a *appNode) lineOf(h uint64) int32 {
	return int32(h % uint64(a.params.TotalLines))
}

// hashOf applies the configured partitioning hash.
func (a *appNode) hashOf(s itemset.Itemset) uint64 { return a.params.Hash.HashItemset(s) }

// ownerOf maps a global line to its owning application node.
func (a *appNode) ownerOf(line int32) int {
	return int(line) % a.env.Layout.AppNodes
}

// localLine maps a global line to the owner's local line index.
func (a *appNode) localLine(line int32) int {
	return int(line) / a.env.Layout.AppNodes
}

// localLines is the number of lines this node owns.
func (a *appNode) localLines() int {
	n := a.env.Layout.AppNodes
	return (a.params.TotalLines + n - 1 - a.id) / n
}

func (a *appNode) run(p transport.Proc) error {
	err := a.mine(p)
	if err != nil {
		err = fmt.Errorf("node %d: %w", a.id, err)
	}
	a.pd.nodeDone(err)
	return err
}

// passEpochs returns the fixed epoch numbers of pass k's collectives. Pass 1
// uses (gather, barrier); every later pass uses (post-build barrier, gather,
// final barrier). Deterministic numbering lets a replayed pass reuse its
// original epochs — the generation stamp, not the epoch, isolates attempts.
func passEpochs(k int) (e1, e2, e3 int) {
	if k == 1 {
		return 1, 2, 0
	}
	base := 2 + 3*(k-2)
	return base + 1, base + 2, base + 3
}

func (a *appNode) mine(p transport.Proc) error {
	res := a.pd.res
	a.largeHist = make(map[int][]itemset.Itemset)

	startPass := 1
	if a.env.ResumeGen > 0 {
		rp, err := a.resumeBootstrap(p)
		if err != nil {
			return err
		}
		startPass = rp
	}

	for k := startPass; ; {
		done, err := a.runPass(p, k)
		if err != nil {
			rp, rerr := a.recover(p, k, err)
			if rerr != nil {
				return rerr
			}
			k = rp
			continue
		}
		if done {
			break
		}
		k++
	}

	// Client-lifetime stats (migrations can land in any pass). These writes
	// happen after the final barrier, so on the goroutine-per-node backend
	// they overlap node 0's aggregation below — pd.mu orders them. Node 0
	// reads only pass-scoped fields (written before the final barrier);
	// Resilience is read by callers after every node finished (Result gate).
	a.pd.mu.Lock()
	if len(a.env.Clients) > a.id && a.env.Clients[a.id] != nil {
		a.pd.res.PerNode[a.id].Migrations = a.env.Clients[a.id].Migrations()
		a.pd.res.PerNode[a.id].RelocatedLines = a.env.Clients[a.id].RelocatedLines()
		a.pd.res.PerNode[a.id].Resilience = a.env.Clients[a.id].Resilience()
	}
	a.pd.res.PerNode[a.id].Resilience.Add(a.resil)
	a.pd.mu.Unlock()

	if a.id == 0 {
		res.TotalTime = p.Now().Sub(0)
		if len(res.PassTimes) > 2 {
			res.Pass2Time = res.PassTimes[2]
		}
		a.pd.mu.Lock()
		for _, ns := range res.PerNode {
			if ns.Pagefaults > res.MaxPagefaults {
				res.MaxPagefaults = ns.Pagefaults
			}
			res.TotalUpdates += ns.Updates
		}
		a.pd.mu.Unlock()
		if a.env.Stats != nil {
			res.Messages = a.env.Stats.Messages()
			res.Bytes = a.env.Stats.Bytes()
		}
	}
	return nil
}

// resumeBootstrap restores a respawned miner: reset the remote pager (the
// dead predecessor's swapped lines are garbage under our owner name), seed
// the replay state from the checkpoint, and vote our first unfinished pass
// in the cluster resync. Returns the pass the cluster replays from — our
// vote, or one earlier when a survivor never finished our checkpointed
// pass (barriers bound the spread to exactly those two).
func (a *appNode) resumeBootstrap(p transport.Proc) (int, error) {
	coord := a.env.Coords[a.id]
	a.gen = a.env.ResumeGen
	coord.SetGen(a.gen)
	a.resetPager()
	vote := 1
	if st := a.env.Resume; st != nil {
		if err := a.checkDigests(st); err != nil {
			return 0, err
		}
		a.largeHist[st.Pass] = st.Large
		if st.Pass >= 2 {
			a.largeHist[st.Pass-1] = st.PrevLarge
		}
		vote = st.Pass + 1
		if st.Pass >= 2 {
			ns := &a.pd.res.PerNode[a.id]
			ns.Node = a.id
			ns.CandidatesPass2 = st.Counters.Pass2Candidates
			ns.Pagefaults = st.Counters.Pagefaults
			ns.Evictions = st.Counters.Evictions
			ns.Updates = st.Counters.Updates
			ns.PeakResidentBytes = st.Counters.PeakResidentBytes
		}
	}
	rp, err := coord.Resync(p, vote)
	if err != nil {
		return 0, fmt.Errorf("hpa: resume resync: %w", err)
	}
	if rp != vote && rp != vote-1 || rp < 1 {
		return 0, fmt.Errorf("hpa: resumed node %d voted pass %d but cluster chose %d", a.id, vote, rp)
	}
	return rp, nil
}

// checkDigests refuses a checkpoint recorded against a different workload.
func (a *appNode) checkDigests(st *checkpoint.State) error {
	if got := a.partDigest(); st.PartDigest != got {
		return fmt.Errorf("hpa: checkpoint partition digest %x != live partition %x", st.PartDigest, got)
	}
	if got := a.paramsDigest(); st.ParamsDigest != got {
		return fmt.Errorf("hpa: checkpoint params digest %x != live params %x", st.ParamsDigest, got)
	}
	return nil
}

func (a *appNode) partDigest() uint64 {
	return checkpoint.DigestTxns(a.env.Txns[a.id])
}

func (a *appNode) paramsDigest() uint64 {
	return checkpoint.DigestParams(a.env.Layout.AppNodes, a.params.MinSupport,
		a.params.TotalLines, int(a.params.Hash), a.params.MaxPasses)
}

// resetPager clears this node's remote lines (best effort: a store that is
// down lost them anyway).
func (a *appNode) resetPager() {
	if a.params.LimitBytes <= 0 || a.id >= len(a.env.Pagers) {
		return
	}
	if r, ok := a.env.Pagers[a.id].(memtable.Resetter); ok {
		r.Reset()
	}
}

// recover handles a failed pass attempt. Only *PeerLostError is recoverable
// (and only when recovery is armed): wait for the supervisor to respawn the
// rank, bump the generation, reset the pager, resync the cluster, and
// return the pass to replay from. Successive losses during the resync
// itself loop back into another round.
func (a *appNode) recover(p transport.Proc, k int, cause error) (int, error) {
	rv, _ := a.env.Links[a.id].(transport.Reviver)
	var pl *transport.PeerLostError
	if rv == nil || !errors.As(cause, &pl) {
		return 0, cause
	}
	coord := a.env.Coords[a.id]
	for {
		a.recoveries++
		if a.recoveries > a.env.RestartLimit {
			return 0, fmt.Errorf("hpa: node %d exceeded %d recoveries: %w", a.id, a.env.RestartLimit, cause)
		}
		if err := rv.WaitRejoin(pl.Rank, rejoinWait); err != nil {
			return 0, fmt.Errorf("hpa: node %d recovery: %w (recovering from: %v)", a.id, err, cause)
		}
		a.gen++
		coord.SetGen(a.gen)
		a.resetPager()
		rp, err := coord.Resync(p, k)
		if err == nil {
			if rp < 1 || rp > k {
				return 0, fmt.Errorf("hpa: resync chose pass %d while node %d was in pass %d", rp, a.id, k)
			}
			if rp >= 2 && a.largeHist[rp-1] == nil {
				return 0, fmt.Errorf("hpa: node %d cannot replay pass %d (no large set for pass %d)", a.id, rp, rp-1)
			}
			a.resil.Restarts++
			if a.id == 0 {
				a.truncateRes(rp)
			}
			return rp, nil
		}
		if !errors.As(err, &pl) {
			return 0, err
		}
		cause = err // another peer died mid-resync; recover it too
	}
}

// truncateRes rolls node 0's recorded results back so the replay from pass
// rp re-records them without duplication.
func (a *appNode) truncateRes(rp int) {
	res := a.pd.res
	if len(res.Large) > rp {
		res.Large = res.Large[:rp]
	}
	if len(res.PassTimes) > rp {
		res.PassTimes = res.PassTimes[:rp]
	}
	kept := res.Passes[:0]
	for _, ps := range res.Passes {
		if ps.K < rp {
			kept = append(kept, ps)
		}
	}
	res.Passes = kept
	for key := range res.Support {
		if len(key)/4 >= rp {
			delete(res.Support, key)
		}
	}
}

// saveCheckpoint persists pass k's durable state before the pass-final
// barrier — the ordering invariant resume depends on: if our checkpoint
// says pass k, every node has at least started pass k.
func (a *appNode) saveCheckpoint(k int) error {
	if a.id >= len(a.env.Ckpts) || a.env.Ckpts[a.id] == nil {
		return nil
	}
	st := &checkpoint.State{
		Node:         a.id,
		Pass:         k,
		Large:        a.largeHist[k],
		PrevLarge:    a.largeHist[k-1],
		ParamsDigest: a.paramsDigest(),
		PartDigest:   a.partDigest(),
	}
	ns := &a.pd.res.PerNode[a.id]
	st.Counters = checkpoint.Counters{
		Pass2Candidates:   ns.CandidatesPass2,
		Pagefaults:        ns.Pagefaults,
		Evictions:         ns.Evictions,
		Updates:           ns.Updates,
		PeakResidentBytes: ns.PeakResidentBytes,
	}
	return a.env.Ckpts[a.id].Save(st)
}

// runPass executes one mining pass (pass 1: local item counts + global
// merge; pass k ≥ 2: candidate table build, all-to-all counting, global
// merge). It returns done=true when the run is over. On any collective or
// transport error it returns with the pass's partial state discarded —
// mine's recovery loop decides whether to replay.
func (a *appNode) runPass(p transport.Proc, k int) (bool, error) {
	if k > 1 && a.params.MaxPasses != 0 && k > a.params.MaxPasses {
		return true, nil
	}
	chaos.Hit(chaos.KPPassStart)
	res := a.pd.res
	costs := a.params.Costs
	coord := a.env.Coords[a.id]
	txns := a.env.Txns[a.id]
	e1, e2, e3 := passEpochs(k)
	a.passStart = p.Now()
	passStart := a.passStart

	if k == 1 {
		// ---- Pass 1: count items locally, merge globally. ----
		counts := make(map[itemset.Item]int)
		for _, t := range txns {
			p.Work(costs.TxnRead)
			for _, it := range t {
				p.Work(costs.Pass1Item)
				counts[it]++
			}
		}
		payload := localCount{
			Items:  make([]itemset.Item, 0, len(counts)),
			Counts: make([]int, 0, len(counts)),
		}
		for it := range counts {
			payload.Items = append(payload.Items, it)
		}
		sort.Slice(payload.Items, func(i, j int) bool { return payload.Items[i] < payload.Items[j] })
		for _, it := range payload.Items {
			payload.Counts = append(payload.Counts, counts[it])
		}
		gathered, err := coord.GatherAll(p, e1, payload, len(payload.Items)*countWireBytesPer)
		if err != nil {
			return false, err
		}

		global := make(map[itemset.Item]int)
		for _, g := range gathered {
			lc := g.(localCount)
			for i, it := range lc.Items {
				global[it] += lc.Counts[i]
			}
		}
		var l1 []itemset.Itemset
		for it, c := range global {
			if c >= res.MinCount {
				l1 = append(l1, itemset.Itemset{it})
			}
		}
		sort.Slice(l1, func(i, j int) bool { return l1[i].Less(l1[j]) })
		a.largeHist[1] = l1
		if a.id == 0 {
			for _, is := range l1 {
				res.Support[is.Key()] = global[is[0]]
			}
			res.Large = append(res.Large, l1)
			res.Passes = append(res.Passes, apriori.PassStats{K: 1, Candidates: len(global), Large: len(l1)})
		}
		if err := a.saveCheckpoint(1); err != nil {
			return false, err
		}
		if err := coord.Barrier(p, e2); err != nil {
			return false, err
		}
		if a.id == 0 {
			res.PassTimes = append(res.PassTimes, p.Now().Sub(passStart))
		}
		a.emitPassSpan(p, 1, passStart)
		return false, nil
	}

	// ---- Pass k ≥ 2. ----
	prevLarge := a.largeHist[k-1]

	// Phase A: every node generates all candidates, keeps its own. The
	// join is deterministic and identical across nodes, so the host
	// computes it once; each node is still charged for the work.
	pc := a.pd.candidatesFor(k, prevLarge, a.params.TotalLines)
	cands := pc.sets
	p.Work(sim.Duration(len(cands)) * costs.CandGen)
	if len(cands) == 0 {
		if a.id == 0 {
			res.Passes = append(res.Passes, apriori.PassStats{K: k})
			res.PassTimes = append(res.PassTimes, p.Now().Sub(passStart))
		}
		return true, nil
	}

	limit := a.params.LimitBytes
	var pager memtable.Pager
	if limit > 0 {
		pager = a.env.Pagers[a.id]
	}
	table, err := memtable.New(memtable.Config{
		Lines:      a.localLines(),
		LimitBytes: limit,
		Policy:     a.params.Policy,
		Eviction:   a.params.Eviction,
		RandSeed:   int64(a.id + 1),
		ProbeCost:  costs.Probe,
		InsertCost: costs.Insert,
		Rec:        a.env.Rec,
		Node:       a.id,
	}, pager)
	if err != nil {
		return false, err
	}
	if len(a.env.Clients) > a.id && a.env.Clients[a.id] != nil {
		a.env.Clients[a.id].AttachTable(table)
	}
	// Re-register the gauge probes against this pass's fresh table
	// (RegisterProbe replaces by node+series, so the old pass's table is
	// released).
	a.env.Rec.RegisterProbe(a.id, "resident_bytes", func() float64 {
		return float64(table.ResidentBytes())
	})
	a.env.Rec.RegisterProbe(a.id, "out_lines", func() float64 {
		return float64(table.Stats().OutLines)
	})

	mine := 0
	for i := range cands {
		line := pc.lines[i]
		if a.ownerOf(line) != a.id {
			continue
		}
		mine++
		if err := table.Insert(p, a.localLine(line), pc.key(i)); err != nil {
			return false, err
		}
	}
	if k == 2 {
		a.pd.res.PerNode[a.id].Node = a.id
		a.pd.res.PerNode[a.id].CandidatesPass2 = mine
	}

	// All tables built before counting traffic starts.
	if err := coord.Barrier(p, e1); err != nil {
		return false, err
	}

	// Phase B: sender scans transactions; receiver (this process) counts.
	// On receiver failure the sender is told to abort and joined before
	// returning, so a replay never races a stale sender.
	a.abortSend.Store(false)
	sender := a.env.Spawn.Go(a.id, fmt.Sprintf("sender-%d-p%d", a.id, k), func(sp transport.Proc) error {
		return a.runSender(sp, k, txns)
	})
	recvErr := a.runReceiver(p, k, table)
	if recvErr != nil {
		a.abortSend.Store(true)
	}
	sendErr := sender.Wait(p)
	if recvErr != nil {
		return false, recvErr
	}
	if sendErr != nil {
		return false, sendErr
	}

	// Phase C: collect counts, determine large locally, merge globally.
	entries, err := table.Collect(p, res.MinCount)
	if err != nil {
		return false, err
	}
	var ls largeSet
	for _, e := range entries {
		ls.Sets = append(ls.Sets, itemset.FromKey(e.Key))
		ls.Counts = append(ls.Counts, int(e.Count))
	}
	gathered, err := coord.GatherAll(p, e2, ls, len(ls.Sets)*largeWireBytesPerKB)
	if err != nil {
		return false, err
	}

	var large []itemset.Itemset
	supports := make(map[string]int)
	for _, g := range gathered {
		o := g.(largeSet)
		for i, s := range o.Sets {
			large = append(large, s)
			supports[s.Key()] = o.Counts[i]
		}
	}
	sort.Slice(large, func(i, j int) bool { return large[i].Less(large[j]) })
	a.largeHist[k] = large

	// Record stats (node 0 records shared results; everyone their own).
	st := table.Stats()
	if k == 2 {
		ns := &a.pd.res.PerNode[a.id]
		ns.Pagefaults = st.Pagefaults
		ns.Evictions = st.Evictions
		ns.Updates = st.Updates
		ns.PeakResidentBytes = st.PeakBytes
	}
	if a.id == 0 {
		res.Large = append(res.Large, large)
		res.Passes = append(res.Passes, apriori.PassStats{K: k, Candidates: len(cands), Large: len(large)})
		for key, c := range supports {
			res.Support[key] = c
		}
	}
	if err := a.saveCheckpoint(k); err != nil {
		return false, err
	}
	if err := coord.Barrier(p, e3); err != nil {
		return false, err
	}
	if a.id == 0 {
		res.PassTimes = append(res.PassTimes, p.Now().Sub(passStart))
	}
	a.emitPassSpan(p, k, passStart)
	return len(large) == 0, nil
}

// emitPassSpan records one mining pass as a trace span on this node.
func (a *appNode) emitPassSpan(p transport.Proc, k int, start sim.Time) {
	if a.env.Rec.Wants(trace.KSpan) {
		a.env.Rec.Emit(trace.Event{
			At: start, Dur: p.Now().Sub(start), Node: a.id,
			Kind: trace.KSpan, Name: fmt.Sprintf("pass-%d", k),
			Line: -1, Peer: -1,
		})
	}
}

// runSender scans the local transactions, enumerates k-subsets, batches them
// per destination, and ships blocks; it ends by sending a done marker to
// every application node. Each subset's key is appended straight into its
// destination's block, so the scan allocates per block, not per subset.
func (a *appNode) runSender(p transport.Proc, k int, txns []itemset.Itemset) error {
	costs := a.params.Costs
	ep := a.env.Links[a.id]
	n := a.env.Layout.AppNodes
	gen := a.gen
	batch := blockItems(ep.BlockSize())
	blocks := make([]dataBlock, n)
	var sendErr error
	flush := func(dest int) {
		blk := blocks[dest]
		if len(blk.Lines) == 0 || sendErr != nil {
			return
		}
		if k == 2 {
			chaos.Hit(chaos.KPPass2Block)
		}
		// The next block to dest gets fresh buffers: this one may be
		// delivered by reference.
		blocks[dest] = dataBlock{}
		sendErr = ep.Send(p, dest, transport.PortData, blk,
			blockHeaderBytes+len(blk.Lines)*probeItemWireBytes)
	}
	emit := func(line int32, s itemset.Itemset) {
		dest := a.ownerOf(line)
		blk := &blocks[dest]
		if blk.Lines == nil {
			*blk = dataBlock{From: a.id, Gen: gen,
				Lines: make([]int32, 0, batch), Keys: make([]byte, 0, batch*itemset.KeyLen(k))}
		}
		blk.Lines = append(blk.Lines, line)
		blk.Keys = itemset.AppendKey(blk.Keys, s)
		if len(blk.Lines) >= batch {
			flush(dest)
		}
	}
	for _, t := range txns {
		if sendErr != nil || a.abortSend.Load() {
			break
		}
		p.Work(costs.TxnRead)
		if k == 2 {
			// Fast path for the dominant pass: enumerate pairs directly.
			for i := 0; i < len(t); i++ {
				for j := i + 1; j < len(t); j++ {
					p.Work(costs.SubsetGen)
					pair := [2]itemset.Item{t[i], t[j]}
					emit(a.lineOf(a.params.Hash.HashPairOf(t[i], t[j])), pair[:])
				}
			}
			continue
		}
		itemset.Subsets(t, k, func(s itemset.Itemset) {
			p.Work(costs.SubsetGen)
			emit(a.lineOf(a.hashOf(s)), s)
		})
	}
	if sendErr != nil {
		return sendErr
	}
	if a.abortSend.Load() {
		return nil // receiver failed; its error drives recovery
	}
	for dest := 0; dest < n; dest++ {
		flush(dest)
		if sendErr != nil {
			return sendErr
		}
		if err := ep.Send(p, dest, transport.PortData, dataDone{From: a.id, Gen: gen}, blockHeaderBytes); err != nil {
			return err
		}
	}
	return sendErr
}

// runReceiver drains pass k's data blocks, probing the table for each key,
// until every sender's done marker has arrived. Blocks stamped with a
// different recovery generation are leftovers of an aborted pass attempt (or
// a peer running ahead after recovery, which cannot happen before our own
// resync); they are dropped and counted, never probed.
func (a *appNode) runReceiver(p transport.Proc, k int, table *memtable.Table) error {
	ep := a.env.Links[a.id]
	remaining := a.env.Layout.AppNodes
	for remaining > 0 {
		m, err := ep.Recv(p, transport.PortData)
		if err != nil {
			return err
		}
		switch msg := m.Payload.(type) {
		case dataBlock:
			if msg.Gen != a.gen {
				a.resil.StaleMsgs++
				continue
			}
			if err := a.probeBlock(p, k, table, msg); err != nil {
				return err
			}
		case dataDone:
			if msg.Gen != a.gen {
				a.resil.StaleMsgs++
				continue
			}
			remaining--
		default:
			return fmt.Errorf("hpa: receiver %d: unexpected message %T", a.id, m.Payload)
		}
	}
	return nil
}

// probeBlock probes the table with each of a pass-k block's keys, in order.
// A peer's block arrives decoded from the mesh, so it is refused whole,
// before any probe, unless it holds exactly one 4·k-byte key per line and
// every line is one this node owns.
func (a *appNode) probeBlock(p transport.Proc, k int, table *memtable.Table, blk dataBlock) error {
	stride := itemset.KeyLen(k)
	if len(blk.Keys) != len(blk.Lines)*stride {
		return fmt.Errorf("hpa: receiver %d: block from node %d holds %d key bytes for %d pass-%d probes",
			a.id, blk.From, len(blk.Keys), len(blk.Lines), k)
	}
	for _, line := range blk.Lines {
		if line < 0 || int(line) >= a.params.TotalLines || a.ownerOf(line) != a.id {
			return fmt.Errorf("hpa: receiver %d: block from node %d probes line %d, which it does not own",
				a.id, blk.From, line)
		}
	}
	for i, line := range blk.Lines {
		if err := table.Probe(p, a.localLine(line), blk.Keys[i*stride:(i+1)*stride]); err != nil {
			return err
		}
	}
	return nil
}
