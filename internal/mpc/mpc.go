// Package mpc simulates the Massively Parallel Communication model of
// Beame–Koutris–Suciu: p servers connected by private channels, computing
// in rounds of local computation interleaved with global communication.
// The load of a server is the number of bits it receives during the
// communication phase, exactly as the model defines it.
//
// The model charges only for bits received, so the simulator keeps its own
// costs out of the way: the communication phase runs on one sharded
// delivery engine (see comm.go) whose goroutine count is O(GOMAXPROCS)
// regardless of the virtual-server count, and clusters are reusable
// (Resize) so executors can pool them instead of reallocating Θ(p) servers
// per run.
//
// The one-round restriction is enforced structurally: a Router decides the
// destinations of a row from that row's values alone plus global
// statistics fixed before the round, never from other servers' data. Rows
// are routed in place, column-wise (Router.DestinationsAt); heavy-value
// runs of a partitioned relation may be routed span-wise (SpanRouter).
package mpc

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/data"
)

// Router decides which servers receive each row of a relation during the
// communication phase. DestinationsAt reads row `row` of rel in place,
// through the relation's column strides, so routing never materializes a
// row view; it must be a pure function of the relation's name, the row's
// values and pre-round statistics. It appends server IDs to dst and
// returns it (allowing allocation-free reuse); IDs must lie in [0, P).
// Duplicate IDs are delivered once.
type Router interface {
	DestinationsAt(rel *data.Relation, row int, dst []int) []int
}

// RouterFunc adapts a function to the Router interface.
type RouterFunc func(rel *data.Relation, row int, dst []int) []int

// DestinationsAt implements Router.
func (f RouterFunc) DestinationsAt(rel *data.Relation, row int, dst []int) []int {
	return f(rel, row, dst)
}

// SpanRoute is the compiled routing of one heavy partition span — a
// contiguous run of rows sharing one value on the partition attribute.
// Exactly one of the two forms is produced per span:
//
//   - Uniform (PerRow nil): every row of the span goes to Dests. The engine
//     bulk-appends whole column ranges into destination slabs — no per-row
//     router work at all. An empty Dests ships nothing (a relation the
//     router does not route this round).
//   - PerRow non-nil: rows still need a per-row dimension (a grid row hash
//     on a non-partition attribute), but the span-level decision — which
//     hitter plan, which block — is resolved once at compile time. PerRow
//     appends to dst and returns it, like Router.DestinationsAt, and
//     is called only from the compiling worker's goroutine.
//
// Both slices may be retained and reused by the engine across spans.
type SpanRoute struct {
	Dests  []int
	PerRow func(row int, dst []int) []int
}

// SpanRouter is an optional Router extension for partition-wise
// routing over heavy-value runs (data.PartitionIndex). When a routed
// relation carries a partition index on attribute attr and the router
// acknowledges that attribute via SpansAttr, the delivery engine resolves
// each heavy span with one CompileSpan call and ships it wholesale; rows in
// the light region and the uncovered tail always take the per-tuple path.
//
// Contract: for every row whose value at attr is v, the compiled route must
// deliver to exactly the servers DestinationsAt would (order may differ;
// duplicates are delivered once either way). CompileSpan may return false to
// decline a span (the engine falls back to per-tuple for those rows), and is
// invoked on the ForSender instance when the router is a PerSenderRouter, so
// compiled closures may use per-sender scratch.
type SpanRouter interface {
	Router
	// SpansAttr reports whether CompileSpan understands spans of rel
	// partitioned on attribute attr.
	SpansAttr(rel *data.Relation, attr int) bool
	// CompileSpan resolves the routing of the heavy run of value v at attr
	// into route (whose fields arrive zeroed: Dests empty, PerRow nil).
	CompileSpan(rel *data.Relation, attr int, v int64, route *SpanRoute) bool
}

// PerSenderRouter is an optional Router extension for allocation-free
// routing: a router that keeps reusable per-tuple scratch implements
// ForSender, and the delivery engine hands each worker its own instance so
// DestinationsAt never allocates and never races. Routers without mutable
// scratch simply don't implement it.
type PerSenderRouter interface {
	Router
	// ForSender returns a router that routes identically but owns private
	// scratch, safe for exclusive use by one goroutine.
	ForSender() Router
}

// forSender resolves the router instance a worker goroutine should use.
func forSender(r Router) Router {
	if ps, ok := r.(PerSenderRouter); ok {
		return ps.ForSender()
	}
	return r
}

// Server is one MPC worker: it accumulates the relation fragments routed to
// it and tracks its load in bits and tuples.
type Server struct {
	ID       int
	Received map[string]*data.Relation
	BitsIn   int64
	TuplesIn int64
}

// Fragment returns this server's fragment of the named relation (possibly
// empty but never nil after a round that routed that relation).
func (s *Server) Fragment(name string) *data.Relation { return s.Received[name] }

// Cluster is a set of p MPC servers. A cluster is reusable: Resize
// re-targets it to a different server count while retaining every server
// (and its map storage) created under earlier sizes, which is what lets
// executors pool clusters across runs instead of reallocating them.
type Cluster struct {
	P       int
	Servers []*Server
	// Senders is the number of input partitions each routed relation is
	// split into (the "input servers" of the model holding uniform
	// partitions); defaults to DefaultSenders when zero. It controls work
	// granularity only — the goroutine count is bounded by GOMAXPROCS —
	// and never affects where tuples are delivered.
	Senders int
	// ResidentChunk caps the rows one send part carries out of a resident
	// fragment in ShuffleResident; defaults to DefaultResidentChunkTuples
	// when zero. Like Senders it controls work granularity only, never
	// where tuples are delivered.
	ResidentChunk int
	// Ctx, when non-nil, is checked at in-round checkpoints: route workers
	// test it per claimed send part, so canceling mid-round aborts the round
	// instead of running it to completion. The round returns the context's
	// error and discards its staged deliveries, leaving fragments and load
	// counters untouched.
	Ctx context.Context
	// Faults, when non-nil, injects the seeded fault schedule (torn rounds,
	// failed compute, stragglers); see Faults. Executors set it per run and
	// Reset clears it.
	Faults *Faults

	// pool holds every server ever created for this cluster; Servers is
	// pool[:P]. Servers keep their identity (and Received map buckets)
	// across Resize/Reset so pooled clusters stop allocating at steady
	// state.
	pool []*Server
	// comm is the sharded engine's reusable scratch (mailboxes, worker
	// destination tables, slab free lists).
	comm commState
	// curRound is the Faults round number of the communication phase in
	// flight (set by communicate before workers start; workers only read).
	curRound uint64
	// curAttempt is the attempt number (1-based) of the communication round
	// in flight: MarkReplay makes the next communicate keep curRound and
	// advance this instead of drawing a new round number.
	curAttempt uint64
	// replayRound flags the next communicate call as a replay; communicate
	// consumes it.
	replayRound bool
	// curPhase/phaseAttempt mirror curRound/curAttempt for compute phases:
	// re-running a phase's failed servers advances the attempt, never the
	// phase number.
	curPhase     uint64
	phaseAttempt uint64
	// faultMu/faultErr record the first injected compute failure of the
	// current execution; TakeFault surfaces and clears it. faultMu also
	// guards the failed-server lists the gather/resident compute variants
	// collect.
	faultMu  sync.Mutex
	faultErr error
}

// DefaultSenders is the per-relation partition count used when
// Cluster.Senders is zero.
const DefaultSenders = 8

// NewCluster returns a cluster of p idle servers.
func NewCluster(p int) *Cluster {
	c := &Cluster{}
	c.Resize(p)
	return c
}

// Resize re-targets the cluster to exactly p servers and resets all
// fragments and load counters, reusing the servers (and their Received
// maps' storage) from every earlier size. It returns c for chaining.
func (c *Cluster) Resize(p int) *Cluster {
	if p < 1 {
		panic(fmt.Sprintf("mpc: p = %d", p))
	}
	for len(c.pool) < p {
		c.pool = append(c.pool, &Server{ID: len(c.pool), Received: make(map[string]*data.Relation)})
	}
	// Clear the full pool, not just the new view: servers parked beyond p
	// must not pin fragments from a larger earlier run.
	for _, s := range c.pool {
		clear(s.Received)
		s.BitsIn = 0
		s.TuplesIn = 0
	}
	c.P = p
	c.Servers = c.pool[:p]
	c.Ctx = nil
	c.Faults = nil
	c.faultErr = nil
	c.curRound = 0
	c.curAttempt = 0
	c.replayRound = false
	c.curPhase = 0
	c.phaseAttempt = 0
	return c
}

// Capacity returns the number of servers the cluster has ever allocated —
// the largest p Resize can serve without growing.
func (c *Cluster) Capacity() int { return len(c.pool) }

// Round executes the communication phase: every tuple of every relation in
// db is routed by router and delivered to its destination servers. Loads
// accumulate across calls, so a multi-step single-round algorithm (like the
// skew join's four logical steps) may call Round repeatedly before Compute.
//
// Round returns an error if the router emits a destination outside
// [0, P); tuples with bad destinations are dropped and the first error is
// reported after the phase drains.
func (c *Cluster) Round(db *data.Database, router Router) error {
	rels := make([]*data.Relation, 0, len(db.Relations))
	for _, name := range db.Names() {
		rels = append(rels, db.Relations[name])
	}
	return c.RoundRelations(router, rels...)
}

// RoundRelations is Round restricted to an explicit relation list: only the
// given relations are routed, so a multi-round pipeline re-routes just the
// relations entering the current round instead of rescanning the whole
// database to produce empty destination lists.
func (c *Cluster) RoundRelations(router Router, rels ...*data.Relation) error {
	senders := c.Senders
	if senders <= 0 {
		senders = DefaultSenders
	}
	var parts []sendPart
	for _, rel := range rels {
		m := rel.Size()
		chunk := (m + senders - 1) / senders
		if chunk == 0 {
			chunk = 1
		}
		parts = appendChunkedParts(parts, rel, chunk)
	}
	return c.communicate(parts, router)
}

// DefaultResidentChunkTuples caps the rows one send part carries out of a
// resident fragment when Cluster.ResidentChunk is zero. A skewed
// intermediate concentrated on one hot server used to enter the next round
// as a single part routed by a single worker, serializing the round;
// chunking splits it so the whole worker pool routes it in parallel. The
// default sits at the flat bottom of BenchmarkResidentChunk's sweep: small
// enough that one hot fragment fans out across the worker pool, large
// enough that per-part overhead stays negligible.
const DefaultResidentChunkTuples = 1024

// ShuffleResident executes a communication phase whose senders are the
// cluster's own servers: each server routes its resident fragment of every
// named relation through router, server-to-server, and afterwards holds
// exactly the fragments newly delivered to it. This is how a multi-round
// pipeline moves an intermediate result into the next round's layout
// without concatenating it at the coordinator and re-ingesting it as a
// fresh database. Loads accumulate exactly as in Round (received bits are
// the model's load, whatever server sent them). Fragments larger than the
// chunking threshold are split into multiple send parts.
func (c *Cluster) ShuffleResident(router Router, names ...string) error {
	chunk := c.ResidentChunk
	if chunk <= 0 {
		chunk = DefaultResidentChunkTuples
	}
	type detached struct {
		s    *Server
		frag *data.Relation
	}
	var parts []sendPart
	var moved []detached
	for _, s := range c.Servers {
		for _, name := range names {
			frag, ok := s.Received[name]
			if !ok {
				continue
			}
			// Detach before routing: receivers append to s.Received[name]
			// concurrently, so the outgoing fragment must no longer be
			// reachable there.
			delete(s.Received, name)
			moved = append(moved, detached{s, frag})
			parts = appendChunkedParts(parts, frag, chunk)
		}
	}
	err := c.communicate(parts, router)
	if err != nil {
		// The failed round was discarded wholesale, so re-attaching the
		// outgoing fragments restores the exact pre-round state and the
		// shuffle can simply be re-driven.
		for _, d := range moved {
			d.s.Received[d.frag.Name] = d.frag
		}
	}
	return err
}

// sendPart is one unit of routing work: rows [lo, hi) of one relation (an
// input-server partition in Round, a resident server fragment — or a chunk
// of one — in ShuffleResident).
type sendPart struct {
	rel    *data.Relation
	lo, hi int
}

// appendChunkedParts appends rel split into send parts of at most chunk
// rows each; empty relations contribute nothing.
func appendChunkedParts(parts []sendPart, rel *data.Relation, chunk int) []sendPart {
	if chunk < 1 {
		chunk = 1
	}
	m := rel.Size()
	for lo := 0; lo < m; lo += chunk {
		hi := min(lo+chunk, m)
		parts = append(parts, sendPart{rel: rel, lo: lo, hi: hi})
	}
	return parts
}

// MarkReplay flags the next communication round as a replay of the round
// most recently driven: the fault schedule keeps the same round number and
// advances the attempt dimension, so a re-driven round draws a fresh
// injected-fault decision instead of deterministically re-tearing. The
// executor calls this after a torn round before re-driving it.
func (c *Cluster) MarkReplay() { c.replayRound = true }

// communicate runs one communication phase as a transaction, applying the
// torn-round fault (only a prefix of the parts arrives): routed slabs are
// staged in mailboxes and committed into receiver fragments only once every
// part of the round has arrived. A torn round (or a mid-round context
// cancellation) discards the staged state wholesale, leaving fragments and
// load counters bit-identical to the pre-round state.
func (c *Cluster) communicate(parts []sendPart, router Router) error {
	if len(parts) == 0 {
		c.replayRound = false
		return nil
	}
	torn := false
	total := len(parts)
	if f := c.Faults; f != nil {
		if c.replayRound && c.curRound > 0 {
			c.curAttempt++
		} else {
			c.curRound = f.nextRound()
			c.curAttempt = 1
		}
		if f.WouldTearRoundAttempt(c.curRound, c.curAttempt) {
			torn = true
			parts = parts[:total/2]
		}
	}
	c.replayRound = false
	var err error
	if len(parts) > 0 {
		err = c.stageSharded(parts, router)
	}
	if err != nil || torn {
		c.discardStaged()
		if err != nil {
			return err
		}
		return fmt.Errorf("mpc: round %d attempt %d delivered %d of %d parts: %w",
			c.curRound, c.curAttempt, len(parts), total, ErrTornRound)
	}
	c.commitStaged()
	return nil
}

// TakeFault returns (and clears) the first injected compute failure
// recorded since the last TakeFault/Reset, or nil.
func (c *Cluster) TakeFault() error {
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	err := c.faultErr
	c.faultErr = nil
	return err
}

// reportFault records the first injected compute failure of the execution.
func (c *Cluster) reportFault(err error) {
	c.faultMu.Lock()
	if c.faultErr == nil {
		c.faultErr = err
	}
	c.faultMu.Unlock()
}

// eachServer runs f(worker, server) over every server from a bounded pool
// of min(GOMAXPROCS, P) goroutines claiming servers off a shared counter —
// local computation must not spawn Θ(Virtual) goroutines.
func (c *Cluster) eachServer(f func(worker int, s *Server)) {
	workers := min(runtime.GOMAXPROCS(0), c.P)
	if workers <= 1 {
		for _, s := range c.Servers {
			f(0, s)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= c.P {
					return
				}
				f(w, c.Servers[i])
			}
		}(w)
	}
	wg.Wait()
}

// eachIn runs f over exactly the given server IDs from a bounded pool, the
// subset analogue of eachServer — recompute after a partial compute failure
// touches only the failed servers.
func (c *Cluster) eachIn(ids []int, f func(s *Server)) {
	workers := min(runtime.GOMAXPROCS(0), len(ids))
	if workers <= 1 {
		for _, id := range ids {
			f(c.Servers[id])
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				f(c.Servers[ids[i]])
			}
		}()
	}
	wg.Wait()
}

// ComputeResident runs f on every server and installs the returned relation
// as the server's sole resident fragment (under the relation's own name); a
// nil return leaves the server empty. The round's input fragments are
// dropped either way — between pipeline stages each server holds exactly
// its share of the current intermediate, ready to be moved by
// ShuffleResident. Load counters are untouched: local computation is free
// in the MPC model.
//
// An injected compute failure is recorded via TakeFault and the failed
// server is left empty, as before this engine grew recovery: callers that
// want to re-run just the failed servers use ComputeResidentRecover.
func (c *Cluster) ComputeResident(f func(s *Server) *data.Relation) {
	for _, id := range c.ComputeResidentRecover(f) {
		c.reportFault(fmt.Errorf("mpc: compute phase %d, server %d: %w", c.curPhase, id, ErrComputeFailed))
		clear(c.Servers[id].Received)
	}
}

// ComputeResidentRecover is ComputeResident built for recovery: a server
// whose compute fails under the injected schedule keeps its input
// fragments untouched (and installs nothing), and the failed server IDs
// are returned in ascending order — compute is a pure function of the
// server's fragments, so the caller re-runs exactly those servers with
// RecomputeResident while successful servers' outputs stand.
func (c *Cluster) ComputeResidentRecover(f func(s *Server) *data.Relation) []int {
	flt, phase, attempt := c.computePhaseFaults()
	return c.computeResidentOn(nil, flt, phase, attempt, f)
}

// RecomputeResident re-runs f on exactly the given servers as the next
// attempt of the most recent compute phase, with ComputeResidentRecover's
// semantics; other servers are untouched. It returns the servers that
// failed again.
func (c *Cluster) RecomputeResident(ids []int, f func(s *Server) *data.Relation) []int {
	flt, phase, attempt := c.recomputePhaseFaults()
	return c.computeResidentOn(ids, flt, phase, attempt, f)
}

// computeResidentOn runs the resident-compute body over all servers (ids
// nil) or a subset, collecting injected failures.
func (c *Cluster) computeResidentOn(ids []int, flt *Faults, phase, attempt uint64, f func(s *Server) *data.Relation) []int {
	var failed []int
	body := func(s *Server) {
		if flt != nil && flt.WouldFailComputeAttempt(phase, attempt, s.ID) {
			c.faultMu.Lock()
			failed = append(failed, s.ID)
			c.faultMu.Unlock()
			return
		}
		out := f(s)
		clear(s.Received)
		if out != nil {
			s.Received[out.Name] = out
		}
	}
	if ids == nil {
		c.eachServer(func(_ int, s *Server) { body(s) })
	} else {
		c.eachIn(ids, body)
	}
	sort.Ints(failed)
	return failed
}

// computePhaseFaults opens a new compute phase and resolves its fault
// schedule: non-nil with the phase's event number and attempt 1 when
// compute failures are armed.
func (c *Cluster) computePhaseFaults() (*Faults, uint64, uint64) {
	if f := c.Faults; f != nil && f.ComputeFail > 0 {
		c.curPhase = f.nextComputePhase()
		c.phaseAttempt = 1
		return f, c.curPhase, 1
	}
	return nil, 0, 0
}

// recomputePhaseFaults advances the attempt of the current compute phase
// for a failed-server re-run.
func (c *Cluster) recomputePhaseFaults() (*Faults, uint64, uint64) {
	if f := c.Faults; f != nil && f.ComputeFail > 0 {
		c.phaseAttempt++
		return f, c.curPhase, c.phaseAttempt
	}
	return nil, 0, 0
}

// Compute runs f on every server (the local-computation phase) and returns
// the concatenated outputs in server order, allocated once at exact size.
// Injected compute failures are recorded via TakeFault; the failed servers
// contribute no output.
func (c *Cluster) Compute(f func(s *Server) []data.Tuple) []data.Tuple {
	outs := make([][]data.Tuple, c.P)
	for _, id := range c.ComputeGather(outs, f) {
		c.reportFault(fmt.Errorf("mpc: compute phase %d, server %d: %w", c.curPhase, id, ErrComputeFailed))
	}
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	out := make([]data.Tuple, 0, total)
	for _, o := range outs {
		out = append(out, o...)
	}
	return out
}

// ComputeGather runs f on every server (the local-computation phase),
// storing each server's output at outs[s.ID]; outs must have length P.
// Servers whose compute fails under the injected schedule leave their outs
// entry untouched, and the failed IDs are returned in ascending order so
// the caller can re-run exactly those servers with RecomputeGather. Input
// fragments are never consumed — gather-style compute leaves s.Received
// alone on success and failure alike.
func (c *Cluster) ComputeGather(outs [][]data.Tuple, f func(s *Server) []data.Tuple) []int {
	flt, phase, attempt := c.computePhaseFaults()
	return c.computeGatherOn(nil, outs, flt, phase, attempt, f)
}

// RecomputeGather re-runs f on exactly the given servers as the next
// attempt of the most recent compute phase, storing outputs at outs[s.ID];
// other entries are untouched. It returns the servers that failed again.
func (c *Cluster) RecomputeGather(outs [][]data.Tuple, ids []int, f func(s *Server) []data.Tuple) []int {
	flt, phase, attempt := c.recomputePhaseFaults()
	return c.computeGatherOn(ids, outs, flt, phase, attempt, f)
}

// computeGatherOn runs the gather-compute body over all servers (ids nil)
// or a subset, collecting injected failures.
func (c *Cluster) computeGatherOn(ids []int, outs [][]data.Tuple, flt *Faults, phase, attempt uint64, f func(s *Server) []data.Tuple) []int {
	var failed []int
	body := func(s *Server) {
		if flt != nil && flt.WouldFailComputeAttempt(phase, attempt, s.ID) {
			c.faultMu.Lock()
			failed = append(failed, s.ID)
			c.faultMu.Unlock()
			return
		}
		outs[s.ID] = f(s)
	}
	if ids == nil {
		c.eachServer(func(_ int, s *Server) { body(s) })
	} else {
		c.eachIn(ids, body)
	}
	sort.Ints(failed)
	return failed
}

// LoadSummary aggregates per-server loads after one or more Round calls.
type LoadSummary struct {
	MaxBits     int64
	MaxTuples   int64
	TotalBits   int64
	TotalTuples int64
	P           int
	// Replication is TotalBits divided by the input size in bits; callers
	// supply the input size to FinishReplication.
	Replication float64
}

// Loads summarizes the current per-server loads.
func (c *Cluster) Loads() LoadSummary {
	var s LoadSummary
	s.P = c.P
	for _, sv := range c.Servers {
		if sv.BitsIn > s.MaxBits {
			s.MaxBits = sv.BitsIn
		}
		if sv.TuplesIn > s.MaxTuples {
			s.MaxTuples = sv.TuplesIn
		}
		s.TotalBits += sv.BitsIn
		s.TotalTuples += sv.TuplesIn
	}
	return s
}

// WithReplication returns a copy of s with Replication = TotalBits /
// inputBits.
func (s LoadSummary) WithReplication(inputBits int64) LoadSummary {
	if inputBits > 0 {
		s.Replication = float64(s.TotalBits) / float64(inputBits)
	}
	return s
}

// Reset clears all fragments and load counters. Received maps are retained
// (cleared, not reallocated), so a pooled cluster reaches steady state
// without per-run map churn. Per-run execution state — context, fault
// schedule, recorded fault — is dropped too, so a pooled cluster poisoned
// by an aborted round comes back clean.
func (c *Cluster) Reset() {
	for _, s := range c.Servers {
		clear(s.Received)
		s.BitsIn = 0
		s.TuplesIn = 0
	}
	c.Ctx = nil
	c.Faults = nil
	c.faultErr = nil
	c.curRound = 0
	c.curAttempt = 0
	c.replayRound = false
	c.curPhase = 0
	c.phaseAttempt = 0
}
