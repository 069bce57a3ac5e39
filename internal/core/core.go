// Package core implements the congested clique model of Drucker, Kuhn and
// Oshman (PODC 2014) as an executable, bit-accurate synchronous round
// engine. It supports the three models used in the paper:
//
//   - CLIQUE-UCAST(n,b): n players over a complete network; in each round a
//     player may send a different message of at most b bits on each of its
//     n-1 links.
//   - CLIQUE-BCAST(n,b): each player broadcasts a single message of at most
//     b bits per round to all other players (the multi-party shared
//     blackboard model).
//   - CONGEST-UCAST: unicast, but messages may travel only along the edges
//     of a given topology graph (the paper's Section 3.2 lower bounds).
//
// The engine enforces the bandwidth bound at send time, meters rounds,
// total bits, per-link load, per-node broadcast bits and (optionally) the
// bits crossing a designated cut — the quantity the paper's Section 3 lower
// bounds reason about.
//
// # Execution engine
//
// Within a round the steps of distinct nodes are independent — each
// reads only its own inbox and stages sends into its own Proc — so the
// engine fans them out across a worker pool (Config.Parallelism; see
// DESIGN.md §3). Collection, delivery and accounting run sequentially in
// ascending node order, so Outputs and Stats are bit-identical for every
// parallelism setting; Parallelism=1 keeps the legacy sequential path as
// the determinism oracle.
//
// A node stages either one Broadcast or a set of Sends on distinct links
// per round. Either copies the message into a buffer the sending node
// owns (one per message it stages in a round, reused every other round)
// and seals it (bits.Buffer.Freeze), and the engine delivers that buffer
// itself to every recipient, so the caller keeps its own buffer and a
// broadcast costs one copy in every model. The models differ only in how
// a broadcast is metered: once in BCAST, where it is one blackboard
// write, and on each recipient link in UCAST and CONGEST. Received
// buffers are therefore read-only (mutating one panics) and valid only
// until the recipient's next round, when their sender may refill them.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bits"
	"repro/internal/graph"
)

// Model selects the communication model.
type Model int

// The three models used in the paper.
const (
	Unicast   Model = iota + 1 // CLIQUE-UCAST
	Broadcast                  // CLIQUE-BCAST
	Congest                    // CONGEST-UCAST over Config.Topology
)

func (m Model) String() string {
	switch m {
	case Unicast:
		return "CLIQUE-UCAST"
	case Broadcast:
		return "CLIQUE-BCAST"
	case Congest:
		return "CONGEST-UCAST"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// MarshalText encodes the model by its name, the spelling trace headers
// carry.
func (m Model) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText decodes a model name written by MarshalText.
func (m *Model) UnmarshalText(text []byte) error {
	for _, c := range []Model{Unicast, Broadcast, Congest} {
		if string(text) == c.String() {
			*m = c
			return nil
		}
	}
	return fmt.Errorf("core: unknown model %q", text)
}

// Errors reported by the engine.
var (
	ErrBandwidth    = errors.New("core: message exceeds bandwidth")
	ErrBadModel     = errors.New("core: operation not allowed in this model")
	ErrNotNeighbor  = errors.New("core: destination is not a topology neighbor")
	ErrDoubleSend   = errors.New("core: second message on the same link in one round")
	ErrRoundLimit   = errors.New("core: exceeded MaxRounds; protocol diverged")
	ErrBadConfig    = errors.New("core: invalid configuration")
	ErrSelfMessage  = errors.New("core: node may not message itself")
	ErrUnknownNode  = errors.New("core: destination out of range")
	ErrAfterBarrier = errors.New("core: send after node halted")
	ErrStalled      = errors.New("core: protocol stalled (no traffic for DefaultQuiesceLimit steps; crashed or deadlocked nodes)")
)

// Config describes a run of the model.
type Config struct {
	N         int          // number of players
	Bandwidth int          // b, in bits per link (UCAST/CONGEST) or per broadcast (BCAST)
	Model     Model        //
	Topology  *graph.Graph // required iff Model == Congest
	Seed      int64        // base seed; node i draws from Seed*1_000_000_007 + i
	MaxRounds int          // safety bound; 0 means DefaultMaxRounds
	CutSide   []bool       // optional: membership of the cut side for CutBits accounting

	// Parallelism is the number of workers stepping nodes within a round.
	// 0 means runtime.GOMAXPROCS(0); 1 forces the sequential legacy
	// engine (the determinism oracle); k > 1 uses k workers. Outputs and
	// Stats are identical for every setting. Protocols that build their
	// own Config take it from the caller's Env.
	Parallelism int

	// FaultPlan injects a deterministic adversary into the delivery path
	// (internal/fault implements it); nil is a clean channel. Fault
	// decisions are applied during sequential delivery, so a given plan
	// produces a bit-identical fault schedule under every Parallelism
	// setting. Protocols that build their own Config get it from the
	// caller's Env.Faults. An active plan also arms the stall detector
	// (DefaultQuiesceLimit).
	FaultPlan FaultInjector

	// Sink receives the run's round-level trace (see trace.go and
	// DESIGN.md §14); nil leaves the run untraced, at zero cost.
	// Protocols that build their own Config get it from the caller's
	// Env.Sink. A Sink is valid at every Parallelism setting: records
	// are emitted from the sequential delivery pass and per-node marks
	// merge in ascending node id, so the deterministic trace fields are
	// bit-identical across worker widths — there is no configuration in
	// which record order could become ambiguous, hence validate never
	// rejects the combination (TestTraceMergeOrderParallel pins this).
	Sink Sink
}

// FaultAction is the adversary's decision for one staged message on one
// directed link in one round. The zero value delivers faithfully.
type FaultAction struct {
	Drop       bool // message is lost (its bits are still metered as sent)
	Corrupt    bool // flip bit CorruptBit%len of a private copy
	CorruptBit int  //
	Delay      int  // deliver this many rounds late (0 = on time)
	Duplicate  bool // deliver an extra copy DupDelay rounds late
	DupDelay   int  // >= 1 when Duplicate
}

// FaultInjector decides the fate of every delivered message. OnMessage is
// consulted exactly once per (round, src, dst) delivery — for broadcasts,
// once per recipient — during the engine's sequential delivery pass, so
// implementations must be deterministic in their arguments but need no
// synchronization. CrashRound reports the round at which node id
// crash-stops (it is no longer stepped and sends nothing from that round
// on), or a negative value if it never crashes.
type FaultInjector interface {
	OnMessage(round, src, dst, nbits int) FaultAction
	CrashRound(id int) int
}

// FaultStats counts the adversary's interventions over a run. A delayed
// or duplicated message that finds its inbox slot already occupied on
// arrival is discarded and counted under Collisions (one link carries at
// most one message per round, faults included).
type FaultStats struct {
	Drops       int `json:"drops"`
	Corruptions int `json:"corruptions"`
	Delays      int `json:"delays"`
	Duplicates  int `json:"duplicates"`
	Collisions  int `json:"collisions"`
	Crashes     int `json:"crashes"`
}

// DefaultQuiesceLimit is the stall detector's threshold, armed whenever a
// fault plan is active: a run fails with ErrStalled after this many
// consecutive steps in which no message was sent and nothing was
// delivered while nodes remain live (crashed or deadlocked nodes). It is
// far above the longest legitimately quiet stretch of any protocol in
// the repo (idle tails of chunked schedules) yet small enough that a
// crash-stalled run fails in thousands, not millions, of steps.
const DefaultQuiesceLimit = 1024

// DefaultMaxRounds bounds runaway protocols.
const DefaultMaxRounds = 1 << 20

// Env is the engine environment of one protocol run, for protocols that
// build their own Config: every such entry point takes an Env and runs
// RunProcs(env.Apply(cfg), …). The zero value is the default engine:
// GOMAXPROCS workers, a clean channel, no trace.
//
// Faults and Sink are factories, not instances, so that every engine
// execution gets its own fault plan and trace built from its own
// Config.Seed, even when one protocol call drives several.
type Env struct {
	Parallelism int                            // Config.Parallelism
	Faults      func(seed int64) FaultInjector // builds Config.FaultPlan; nil = clean channel
	Sink        func(seed int64) Sink          // builds Config.Sink; nil (or a nil result) = untraced
}

// Apply returns cfg with the environment filled into the engine settings
// it leaves unset: Parallelism 0, nil FaultPlan, nil Sink.
func (e Env) Apply(cfg Config) Config {
	if cfg.Parallelism == 0 {
		cfg.Parallelism = e.Parallelism
	}
	if cfg.FaultPlan == nil && e.Faults != nil {
		cfg.FaultPlan = e.Faults(cfg.Seed)
	}
	if cfg.Sink == nil && e.Sink != nil {
		cfg.Sink = e.Sink(cfg.Seed)
	}
	return cfg
}

// workers resolves the effective worker count for this run.
func (c *Config) workers() int { return ResolveParallelism(c.Parallelism) }

func (c *Config) validate() error {
	if c.N <= 0 {
		return fmt.Errorf("%w: N=%d", ErrBadConfig, c.N)
	}
	if c.Bandwidth <= 0 {
		return fmt.Errorf("%w: Bandwidth=%d", ErrBadConfig, c.Bandwidth)
	}
	switch c.Model {
	case Unicast, Broadcast:
	case Congest:
		if c.Topology == nil || c.Topology.N() != c.N {
			return fmt.Errorf("%w: Congest model requires Topology on N vertices", ErrBadConfig)
		}
	default:
		return fmt.Errorf("%w: unknown model %d", ErrBadConfig, c.Model)
	}
	if c.CutSide != nil && len(c.CutSide) != c.N {
		return fmt.Errorf("%w: CutSide length %d != N %d", ErrBadConfig, len(c.CutSide), c.N)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("%w: Parallelism=%d", ErrBadConfig, c.Parallelism)
	}
	return nil
}

// Stats is the accounting the lower/upper bounds of the paper reason about.
//
// Rounds counts rounds in which communication occurred: a message was
// sent, or a delayed/duplicated message released by the fault plan landed
// in an inbox. (Before the delay-fault accounting fix a round in which
// only adversarially delayed traffic arrived was not counted even though
// bits crossed links that round; the injector's Delays/Duplicates
// counters and Stats.Rounds now agree on what "communication" means.)
// Without a fault plan the two definitions coincide — deliveries happen
// exactly in sending rounds — so fault-free accounting is unchanged.
type Stats struct {
	Rounds       int     // rounds in which at least one message was sent or delivered
	Steps        int     // engine iterations until all nodes halted
	TotalBits    int64   // sum of bits over all sent messages
	MaxLinkBits  int     // max bits sent on one directed link in one round
	MaxNodeBits  int64   // max total bits sent by a single node over the run
	CutBits      int64   // bits crossing Config.CutSide (0 if no cut given)
	NodeSentBits []int64 // per-node totals
}

// Result of a run: per-node outputs plus accounting. Faults is non-nil
// only when a fault plan was active, and counts its interventions — a
// deterministic function of (plan, protocol), so it is diffable across
// engine configurations exactly like Stats.
type Result struct {
	Outputs []interface{}
	Stats   Stats
	Faults  *FaultStats
}

// ID returns this node's identifier in [0, N).
func (p *Proc) ID() int { return p.id }

// N returns the number of players.
func (p *Proc) N() int { return p.cfg.N }

// Bandwidth returns b.
func (p *Proc) Bandwidth() int { return p.cfg.Bandwidth }

// Model returns the communication model of the run.
func (p *Proc) Model() Model { return p.cfg.Model }

// Round returns the current round number (0-based).
func (p *Proc) Round() int { return p.round }

// Rand returns this node's private deterministic randomness source. It
// is seeded from Config.Seed and the node id on first use, so nodes that
// never draw pay nothing for it.
func (p *Proc) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.cfg.Seed*1_000_000_007 + int64(p.id)))
	}
	return p.rng
}

// SetOutput records the node's final (or running) output value.
func (p *Proc) SetOutput(v interface{}) { p.output = v }

// checkSend validates a unicast staging against the model's constraints.
func (p *Proc) checkSend(dst int, msg *bits.Buffer) error {
	if p.halted {
		return ErrAfterBarrier
	}
	if p.cfg.Model == Broadcast {
		return fmt.Errorf("%w: Send in %v", ErrBadModel, p.cfg.Model)
	}
	if dst < 0 || dst >= p.cfg.N {
		return fmt.Errorf("%w: %d", ErrUnknownNode, dst)
	}
	if dst == p.id {
		return ErrSelfMessage
	}
	if p.cfg.Model == Congest && !p.cfg.Topology.HasEdge(p.id, dst) {
		return fmt.Errorf("%w: %d -> %d", ErrNotNeighbor, p.id, dst)
	}
	if msg.Len() > p.cfg.Bandwidth {
		return fmt.Errorf("%w: %d > %d bits on link %d->%d",
			ErrBandwidth, msg.Len(), p.cfg.Bandwidth, p.id, dst)
	}
	if p.bcast != nil || p.sentTo(dst) {
		return fmt.Errorf("%w: %d -> %d", ErrDoubleSend, p.id, dst)
	}
	return nil
}

// Send stages msg for delivery to dst at the start of the next round.
// It enforces the model's constraints: unicast only in UCAST/CONGEST, at
// most one message per link per round (so no Send beside a Broadcast), at
// most Bandwidth bits, and in the CONGEST model dst must be a topology
// neighbor. The message is copied into one of this node's buffers, so the
// caller keeps msg and may reuse it at once.
func (p *Proc) Send(dst int, msg *bits.Buffer) error {
	if err := p.checkSend(dst, msg); err != nil {
		return err
	}
	row := &p.rows[p.round&1]
	k := len(p.sent)
	if k == len(*row) {
		// More Sends than this parity's row holds: move to a row twice
		// as long (at least 32), but never longer than the N-1 messages
		// a node can send in a round. The old row's buffers staged this
		// round stay with their readers.
		*row = bits.NewRow(min(max(2*k, 32), p.cfg.N-1), p.cfg.Bandwidth)
	}
	p.dsts[dst>>6] |= 1 << (dst & 63)
	p.sent = append(p.sent, staged{dst, (*row)[k].Refill(msg)})
	return nil
}

// Broadcast stages msg for delivery to every other node next round — in
// the CONGEST model, to every topology neighbor. A node stages either one
// Broadcast or a set of Sends per round; any second message fails with
// ErrDoubleSend. The message is copied once, into this node's broadcast
// buffer, which every recipient then reads, so staging costs one copy
// regardless of fan-out; the caller keeps msg. The models differ only in
// how the engine meters it: in BCAST it is one blackboard write of its
// length; in UCAST and CONGEST it costs its length on each recipient link,
// exactly what the same message sent to each recipient would (as the
// paper notes, unicast subsumes broadcast).
func (p *Proc) Broadcast(msg *bits.Buffer) error {
	if p.halted {
		return ErrAfterBarrier
	}
	if msg.Len() > p.cfg.Bandwidth {
		return fmt.Errorf("%w: broadcast of %d > %d bits by node %d",
			ErrBandwidth, msg.Len(), p.cfg.Bandwidth, p.id)
	}
	if p.bcast != nil || len(p.sent) > 0 {
		return fmt.Errorf("%w: broadcast beside another message by node %d", ErrDoubleSend, p.id)
	}
	if p.cfg.Model == Congest && p.nbrs == nil {
		p.nbrs = p.cfg.Topology.Neighbors(p.id)
	}
	p.bcast = p.bcasts[p.round&1].Refill(msg)
	return nil
}

// pendingDelivery is a delayed (or duplicated) message in flight: it is
// filed into dst's inbox slot for src during the delivery pass of round
// `due`.
type pendingDelivery struct {
	due, dst, src int
	msg           *bits.Buffer
}

// engine holds the per-run state of the round loop. All matrices are
// allocated once up front and reused across rounds.
type engine struct {
	cfg      *Config
	procs    []Proc // one per node, indexed by id
	stats    Stats
	live     []int // ascending ids of non-halted nodes
	spare    []int // scratch for the next live list (double-buffered)
	stepped  []int // nodes stepped this round (the previous live list)
	done     []bool
	errs     []error
	workers  int
	pool     *workerPool // resident round pool; nil when workers == 1
	round    int         // the round being stepped
	stepSlot func(k int) // e.stepLive, bound once so rounds allocate nothing

	// Every inbox slot, dst*N+src: node dst's inbox is row dst. filled
	// lists the slots the last delivery filled, to be cleared by the
	// next; it is sized up front for the N(N-1) slots one round can fill
	// (one message per directed link, fault landings included), so no
	// run regrows it. sending records that the round being delivered
	// sent a message.
	slots   []*bits.Buffer
	filled  []int32
	sending bool

	// Fault-injection state (all nil/zero when no plan is active).
	plan    FaultInjector
	faults  FaultStats
	pending []pendingDelivery // delayed/duplicated messages in flight
	crashed []bool
	quiet   int // consecutive steps with no sends and no deliveries

	// Round tracing (trace.go; all idle when sink is nil). rt is the
	// reused scratch record; prev* snapshot the accounting at the top
	// of each iteration so the record carries deltas.
	sink        Sink
	traceOn     bool
	rt          RoundTrace
	prevBits    int64
	prevCut     int64
	prevFaults  FaultStats
	traceActive int // live-node count at the top of the iteration
}

func newEngine(cfg *Config, body func(*Proc) error) *engine {
	n := cfg.N
	e := &engine{
		cfg:     cfg,
		procs:   make([]Proc, n),
		stats:   Stats{NodeSentBits: make([]int64, n)},
		live:    make([]int, n),
		spare:   make([]int, 0, n),
		done:    make([]bool, n),
		errs:    make([]error, n),
		workers: cfg.workers(),
		slots:   make([]*bits.Buffer, n*n),
		filled:  make([]int32, 0, n*(n-1)),
		plan:    cfg.FaultPlan,
		sink:    cfg.Sink,
	}
	e.traceOn = e.sink != nil
	e.stepSlot = e.stepLive
	if e.plan != nil {
		e.crashed = make([]bool, n)
	}
	words := (n + 63) / 64
	dsts := make([]uint64, n*words)
	for i := 0; i < n; i++ {
		e.procs[i] = Proc{
			id:     i,
			cfg:    cfg,
			sent:   make([]staged, 0, 4),
			dsts:   dsts[i*words : (i+1)*words : (i+1)*words],
			traced: e.traceOn,
			body:   body,
		}
		e.live[i] = i
	}
	return e
}

// stepLive steps the node in slot k of the live list for e.round and
// records its halt flag and error; a crashed node halts unstepped.
func (e *engine) stepLive(k int) {
	id := e.live[k]
	if e.crashed != nil && e.crashed[id] {
		e.done[k] = true
		e.errs[k] = nil
		return
	}
	p := &e.procs[id]
	p.round = e.round
	n := e.cfg.N
	e.done[k], e.errs[k] = p.step(e.slots[id*n : (id+1)*n : (id+1)*n])
}

// step runs all live nodes for one round — sequentially, or fanned out
// over the worker pool — then compacts the live list. Errors are reported
// for the lowest-numbered failing node.
func (e *engine) step(round int) error {
	n := len(e.live)
	// Crash-stop failures are resolved sequentially before the fan-out:
	// a crashed node is never stepped again and sends nothing from its
	// crash round on (messages it staged in earlier rounds were already
	// delivered — they were "on the wire").
	if e.plan != nil {
		for _, id := range e.live {
			if !e.crashed[id] {
				if cr := e.plan.CrashRound(id); cr >= 0 && round >= cr {
					e.crashed[id] = true
					e.faults.Crashes++
				}
			}
		}
	}
	e.round = round
	if e.pool != nil && n > 1 {
		e.pool.run(n, e.stepSlot)
	} else {
		// Width-1 (the sequential oracle) and single-node rounds step
		// inline: no dispatch.
		for k := 0; k < n; k++ {
			e.stepLive(k)
		}
	}
	for k, id := range e.live {
		if err := e.errs[k]; err != nil {
			return fmt.Errorf("core: node %d failed in round %d: %w", id, round, err)
		}
	}
	e.compactLive()
	return nil
}

// compactLive halts the nodes that reported done and double-buffers the
// live list.
func (e *engine) compactLive() {
	next := e.spare[:0]
	for k, id := range e.live {
		if e.done[k] {
			e.procs[id].halted = true
		} else {
			next = append(next, id)
		}
	}
	e.stepped = e.live
	e.live, e.spare = next, e.live
}

// deliver collects the messages staged by this round's stepped nodes,
// meters them, and files them into the recipients' inboxes — through the
// fault plan when one is active. It runs sequentially, recipients in
// ascending order within ascending senders, which (together with the
// order-insensitive Stats aggregates and the purely positional fault
// decisions) keeps accounting and the fault schedule bit-identical to the
// sequential engine.
func (e *engine) deliver(round int) {
	// Clear only the inbox slots the previous round filled — O(messages),
	// not O(N^2).
	for _, k := range e.filled {
		e.slots[k] = nil
	}
	e.filled = e.filled[:0]
	e.sending = false

	// Delayed and duplicated messages due this round land first: they
	// were on the wire before anything staged now.
	if len(e.pending) > 0 {
		keep := e.pending[:0]
		for _, pd := range e.pending {
			if pd.due != round {
				keep = append(keep, pd)
				continue
			}
			e.fileNow(pd.dst, pd.src, pd.msg)
		}
		e.pending = keep
	}

	cfg := e.cfg
	for _, i := range e.stepped {
		p := &e.procs[i]
		if msg := p.bcast; msg != nil {
			p.bcast = nil
			switch cfg.Model {
			case Broadcast:
				// One blackboard write: metered once, and readable once
				// by the other side of a cut.
				e.meter(i, msg.Len(), cfg.CutSide != nil)
				for j := 0; j < cfg.N; j++ {
					if j != i {
						e.file(round, i, j, msg)
					}
				}
			case Unicast:
				for j := 0; j < cfg.N; j++ {
					if j != i {
						e.send(round, i, j, msg)
					}
				}
			case Congest:
				for _, j := range p.nbrs {
					e.send(round, i, j, msg)
				}
			}
			continue
		}
		for _, s := range p.sent {
			p.dsts[s.dst>>6] &^= 1 << (s.dst & 63)
			e.send(round, i, s.dst, s.msg)
		}
		p.sent = p.sent[:0]
	}
	if e.traceOn {
		e.collectMarks()
	}
	// A round counts toward Stats.Rounds when communication happened in
	// it: something was sent, or a delayed/duplicated message released by
	// the fault plan landed. (Delivery-only rounds used to be missed; see
	// the Stats doc comment.)
	if e.sending || len(e.filled) > 0 {
		e.stats.Rounds++
		e.quiet = 0
	} else {
		e.quiet++
	}
}

// meter accounts one sent message of ln bits from src, which crosses
// Config.CutSide when cut is set.
func (e *engine) meter(src, ln int, cut bool) {
	e.sending = true
	e.stats.TotalBits += int64(ln)
	e.stats.NodeSentBits[src] += int64(ln)
	e.stats.MaxLinkBits = max(e.stats.MaxLinkBits, ln)
	if e.traceOn {
		e.rt.Sends++
		e.rt.MaxLinkBits = max(e.rt.MaxLinkBits, ln)
	}
	if cut {
		e.stats.CutBits += int64(ln)
	}
}

// send meters msg on the link src->dst and files it.
func (e *engine) send(round, src, dst int, msg *bits.Buffer) {
	side := e.cfg.CutSide
	e.meter(src, msg.Len(), side != nil && side[src] != side[dst])
	e.file(round, src, dst, msg)
}

// file routes one metered message through the fault plan (if any) and
// into dst's inbox slot for src. A message the plan delays or duplicates
// is cloned first: it is read after its sender refills the buffer it was
// staged in.
func (e *engine) file(round, src, dst int, msg *bits.Buffer) {
	if e.plan == nil {
		e.fileNow(dst, src, msg)
		return
	}
	a := e.plan.OnMessage(round, src, dst, msg.Len())
	if a.Drop {
		e.faults.Drops++
		return
	}
	if a.Corrupt && msg.Len() > 0 {
		e.faults.Corruptions++
		bit := a.CorruptBit % msg.Len()
		if bit < 0 {
			bit += msg.Len()
		}
		cp := msg.Clone()
		cp.FlipBit(bit)
		msg = cp.Freeze()
	} else if a.Delay > 0 || a.Duplicate {
		msg = msg.Clone().Freeze()
	}
	if a.Duplicate {
		e.faults.Duplicates++
		d := a.DupDelay
		if d < 1 {
			d = 1
		}
		e.pending = append(e.pending, pendingDelivery{due: round + d, dst: dst, src: src, msg: msg})
	}
	if a.Delay > 0 {
		e.faults.Delays++
		e.pending = append(e.pending, pendingDelivery{due: round + a.Delay, dst: dst, src: src, msg: msg})
		return
	}
	e.fileNow(dst, src, msg)
}

// fileNow places a message in its inbox slot unless the slot is already
// occupied this round: one directed link carries at most one message per
// round, adversarial re-deliveries included — the loser is discarded.
func (e *engine) fileNow(dst, src int, msg *bits.Buffer) {
	k := dst*e.cfg.N + src
	if e.slots[k] != nil {
		e.faults.Collisions++
		return
	}
	e.slots[k] = msg
	e.filled = append(e.filled, int32(k))
	if e.traceOn {
		e.rt.Delivered++
		e.rt.DeliveredBits += int64(msg.Len())
	}
}

// RunProcs runs one body per node, each as its own coroutine, under the
// given configuration, until every body has returned, and returns the
// per-node outputs plus accounting. All bodies share the body function;
// they branch on p.ID() (the common SPMD style of congested clique
// algorithms). Before it returns, RunProcs unwinds every body still
// parked in Next or Rounds — after a node error, a body panic,
// ErrRoundLimit or ErrStalled — so a failed run leaves no goroutine
// behind.
func RunProcs(cfg Config, body func(*Proc) error) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds
	}
	e := newEngine(&cfg, body)
	// Stop every started coroutine; stopping one that already returned
	// is a no-op.
	defer func() {
		for i := range e.procs {
			if stop := e.procs[i].stop; stop != nil {
				stop()
			}
		}
	}()
	if e.workers > 1 {
		// Resident round pool: spawned once here, parked between rounds.
		// Width 1 (the sequential oracle) keeps pool == nil and steps
		// inline — zero dispatch machinery on that path.
		e.pool = newWorkerPool(e.workers)
		defer e.pool.close()
	}
	if e.traceOn {
		e.sink.TraceStart(RunMeta{
			N:           cfg.N,
			Bandwidth:   cfg.Bandwidth,
			Model:       cfg.Model,
			Seed:        cfg.Seed,
			Parallelism: e.workers,
			Faulty:      e.plan != nil,
		})
	}
	for step := 0; len(e.live) > 0; step++ {
		if step >= maxRounds {
			return nil, fmt.Errorf("%w (limit %d)", ErrRoundLimit, maxRounds)
		}
		var t0 time.Time
		if e.traceOn {
			e.beginTrace()
			t0 = time.Now()
		}
		e.stats.Steps = step + 1
		if err := e.step(step); err != nil {
			return nil, err
		}
		e.deliver(step)
		if e.traceOn {
			e.emitTrace(step, time.Since(t0).Nanoseconds())
		}
		if e.plan != nil && e.quiet >= DefaultQuiesceLimit {
			return nil, fmt.Errorf("%w: %d live nodes at step %d", ErrStalled, len(e.live), step)
		}
	}
	for _, b := range e.stats.NodeSentBits {
		if b > e.stats.MaxNodeBits {
			e.stats.MaxNodeBits = b
		}
	}
	outputs := make([]interface{}, cfg.N)
	for i := range e.procs {
		outputs[i] = e.procs[i].output
	}
	res := &Result{Outputs: outputs, Stats: e.stats}
	if e.plan != nil {
		f := e.faults
		res.Faults = &f
	}
	if e.traceOn {
		footer := RunFooter{Stats: e.stats, Pending: len(e.pending)}
		if e.plan != nil {
			f := e.faults
			footer.Faults = &f
		}
		e.sink.TraceEnd(&footer)
	}
	return res, nil
}
