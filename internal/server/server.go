// Package server is the HashStash serving front-end: a network-facing
// layer over DB that turns the paper's offline shared-work experiments
// into an online policy. Queries are keyed by batchable shape (same
// table/join spine, per the shared-plan classifier) and batched by
// coincidence, group-commit style: a query whose shape is idle runs at
// once on its caller's goroutine; one that arrives while its shape is
// running queues behind it, and when the running execution ends, what
// queued meanwhile (up to MaxBatch) dispatches as one shared batch
// plan, with per-query results demultiplexed back to their callers. No
// query waits on a clock, and the busier a shape, the bigger its
// groups.
//
// Policy:
//
//   - Benefit gating. Queueing must pay: the shared-plan cost model
//     (DB.EstimateSharingGain, internal/costmodel-backed) must predict
//     a positive saving for merging queries of the shape; shapes whose
//     modeled sharing never pays bypass the queue permanently.
//   - Circuit breaking. A shape whose shared plans keep failing
//     bypasses the queue until its breaker's open interval elapses.
//   - Deadline degradation. A query that would queue but whose
//     deadline cannot absorb the running group plus its own run skips
//     the queue and runs solo — degradation, not an error.
//   - Fair admission with backpressure. The queue is bounded
//     (MaxQueue) and no tenant may hold more than TenantShare of it;
//     admission past either bound fails fast with
//     hashstasherr.ErrOverloaded (HTTP 429), never by blocking.
package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hashstash"
	"hashstash/hashstasherr"
	"hashstash/internal/faultinject"
	"hashstash/internal/memgov"
)

// Config tunes the serving policy. Zero values take the defaults.
type Config struct {
	// MaxQueue bounds the total queries queued across all shapes;
	// admission beyond it fails with ErrOverloaded. Default 256.
	MaxQueue int
	// MaxBatch caps one dispatched group (clamped to the 64-query
	// shared-plan tag limit); a longer queue dispatches as consecutive
	// groups. Default 32.
	MaxBatch int
	// DefaultTimeout applies to queries whose context carries no
	// deadline. Default 10s.
	DefaultTimeout time.Duration
	// TenantShare is the fraction of MaxQueue one tenant may hold
	// (fair admission). Default 0.5.
	TenantShare float64
	// DisableBatching routes every query solo (the serving-layer
	// ablation: same wire surface, no shared plans).
	DisableBatching bool
	// ReadTimeout bounds how long a line-protocol connection may sit
	// idle between statements (half-open clients are reaped). Default
	// 5m; negative disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one line-protocol response. Default
	// 30s; negative disables.
	WriteTimeout time.Duration
	// DrainTimeout bounds Close's graceful drain (Shutdown with an
	// explicit context ignores it). Default 10s.
	DrainTimeout time.Duration
	// BreakerThreshold is how many consecutive shared-plan failures of
	// one shape trip its circuit breaker (subsequent queries of the
	// shape bypass batching until a half-open trial succeeds). Default
	// 3; negative disables the breaker.
	BreakerThreshold int
	// BreakerBackoff is the initial open interval of a tripped breaker;
	// it doubles per consecutive trip, capped at 16x. Default 250ms.
	BreakerBackoff time.Duration
	// Governor overrides the database's memory governor (tests inject
	// one with synthetic pressure). Nil uses DB.MemoryGovernor().
	Governor *memgov.Governor
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxBatch > 64 {
		c.MaxBatch = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.TenantShare <= 0 || c.TenantShare > 1 {
		c.TenantShare = 0.5
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 5 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerBackoff <= 0 {
		c.BreakerBackoff = 250 * time.Millisecond
	}
	return c
}

// Stats are the server's cumulative counters (atomically maintained;
// Stats() snapshots them).
type Stats struct {
	// TotalQueries counts every query admitted to Execute.
	TotalQueries int64
	// BatchedQueries counts queries that executed inside a multi-query
	// shared plan.
	BatchedQueries int64
	// SoloQueries counts queries that executed alone (idle-shape runs,
	// groups of one, bypassed and degraded queries).
	SoloQueries int64
	// Batches counts dispatched multi-query groups.
	Batches int64
	// SharedPlans counts executed shared (multi-query) plans.
	SharedPlans int64
	// PlansExecuted counts executed plans of any kind — under batching
	// it stays below TotalQueries, the point of the exercise.
	PlansExecuted int64
	// DegradedDeadline counts queries that skipped the queue because
	// their deadline could not absorb the wait.
	DegradedDeadline int64
	// RateBypass counts queries that found their shape idle and ran at
	// once.
	RateBypass int64
	// NoGainBypass counts queries whose shape's modeled sharing never
	// pays.
	NoGainBypass int64
	// Overloads counts admissions refused with ErrOverloaded.
	Overloads int64
	// BatchFallbacks counts dispatched groups whose shared plan failed
	// and whose members were re-run solo.
	BatchFallbacks int64
	// QueueDepth is the current number of queued queries.
	QueueDepth int64
	// MemRejects counts admissions refused by the memory governor at
	// the hard watermark.
	MemRejects int64
	// BreakerTrips counts circuit-breaker openings (a shape's shared
	// plans failed BreakerThreshold times in a row).
	BreakerTrips int64
	// BreakerBypassed counts queries that skipped batching because
	// their shape's breaker was open.
	BreakerBypassed int64
	// BreakerResets counts breakers closed again by a successful
	// half-open trial.
	BreakerResets int64
	// ShutdownRejects counts queries refused because the server was
	// draining.
	ShutdownRejects int64
}

// QueryInfo describes how one query was executed.
type QueryInfo struct {
	// Batched reports execution inside a multi-query shared plan.
	Batched bool
	// Mode is the admission outcome: "batched", "solo" (the shape was
	// idle, or the query's group had one member), "bypass-shape",
	// "bypass-off", "bypass-gain", "bypass-breaker",
	// "degraded-deadline", "fallback", or "canceled".
	Mode string
}

// pending is one queued query awaiting group dispatch.
type pending struct {
	q        *hashstash.Query
	tenant   string
	deadline time.Time // zero = none (DefaultTimeout always sets one)
	res      *hashstash.Result
	err      error
	batched  bool
	fallback bool
	done     chan struct{}
}

// shapeQueue is one shape's admission state.
type shapeQueue struct {
	// running is set while an execution of the shape is in flight (an
	// idle-shape run on its caller's goroutine, or a dispatched group).
	// Arrivals meanwhile queue in pending; release hands them the shape
	// when the execution ends. pending is never non-empty on an idle
	// shape.
	running bool
	pending []*pending
	// gain memoizes the shape's modeled-sharing verdict and solo cost
	// estimate (model ns), computed on first arrival.
	gainChecked bool
	gainOK      bool
	estCost     float64
	// Circuit breaker: failStreak consecutive shared-plan failures trip
	// it (openUntil in the future); after the open interval the next
	// group probes recovery — success closes the breaker, failure
	// re-opens it with doubled backoff. A shape's groups run one at a
	// time, so only one probe is ever in flight.
	failStreak int
	openUntil  time.Time
	backoff    time.Duration
}

// Server is the serving front-end over one DB.
type Server struct {
	db  *hashstash.DB
	cfg Config

	mu           sync.Mutex
	cond         *sync.Cond // signals inflight/active/queued drops for Shutdown
	shapes       map[string]*shapeQueue
	queued       int
	tenantQueued map[string]int
	inflight     int // dispatched groups still executing
	active       int // executions on caller goroutines
	closed       bool

	// connMu guards the live line-protocol connections; Shutdown closes
	// them after the drain so serveConn loops exit.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	sessMu   sync.Mutex
	sessions map[string]*hashstash.Session

	total            atomic.Int64
	batchedQueries   atomic.Int64
	soloQueries      atomic.Int64
	batches          atomic.Int64
	sharedPlans      atomic.Int64
	plansExecuted    atomic.Int64
	degradedDeadline atomic.Int64
	rateBypass       atomic.Int64
	noGainBypass     atomic.Int64
	overloads        atomic.Int64
	batchFallbacks   atomic.Int64
	memRejects       atomic.Int64
	breakerTrips     atomic.Int64
	breakerBypassed  atomic.Int64
	breakerResets    atomic.Int64
	shutdownRejects  atomic.Int64
}

// New wraps a database in a serving front-end.
func New(db *hashstash.DB, cfg Config) *Server {
	s := &Server{
		db:           db,
		cfg:          cfg.withDefaults(),
		shapes:       make(map[string]*shapeQueue),
		tenantQueued: make(map[string]int),
		conns:        make(map[net.Conn]struct{}),
		sessions:     make(map[string]*hashstash.Session),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// governor returns the effective memory governor: the config override
// (tests) or the database's. May be nil; all governor methods are
// nil-receiver-safe.
func (s *Server) governor() *memgov.Governor {
	if s.cfg.Governor != nil {
		return s.cfg.Governor
	}
	return s.db.MemoryGovernor()
}

// DB returns the underlying database.
func (s *Server) DB() *hashstash.DB { return s.db }

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	depth := s.queued
	s.mu.Unlock()
	return Stats{
		TotalQueries:     s.total.Load(),
		BatchedQueries:   s.batchedQueries.Load(),
		SoloQueries:      s.soloQueries.Load(),
		Batches:          s.batches.Load(),
		SharedPlans:      s.sharedPlans.Load(),
		PlansExecuted:    s.plansExecuted.Load(),
		DegradedDeadline: s.degradedDeadline.Load(),
		RateBypass:       s.rateBypass.Load(),
		NoGainBypass:     s.noGainBypass.Load(),
		Overloads:        s.overloads.Load(),
		BatchFallbacks:   s.batchFallbacks.Load(),
		QueueDepth:       int64(depth),
		MemRejects:       s.memRejects.Load(),
		BreakerTrips:     s.breakerTrips.Load(),
		BreakerBypassed:  s.breakerBypassed.Load(),
		BreakerResets:    s.breakerResets.Load(),
		ShutdownRejects:  s.shutdownRejects.Load(),
	}
}

// session returns the tenant's shared session (per-tenant prepared
// caches; many connections of one tenant share one).
func (s *Server) session(tenant string) *hashstash.Session {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	sess, ok := s.sessions[tenant]
	if !ok {
		sess = s.db.NewSession(hashstash.WithTenant(tenant))
		s.sessions[tenant] = sess
	}
	return sess
}

// Execute runs one SQL statement for a tenant through admission. A
// query that finds its shape idle (or bypasses the queue) runs at once
// on the calling goroutine; one that queues blocks until its group
// dispatches and executes, honoring ctx: cancellation while still
// queued withdraws the query and returns an error wrapping
// hashstasherr.ErrCanceled; admission past the queue bounds returns
// one wrapping hashstasherr.ErrOverloaded. The answer comes back boxed
// into Result.Rows, as the library entry points return it; the wire
// handlers take the same path without the boxing.
func (s *Server) Execute(ctx context.Context, tenant, sql string) (*hashstash.Result, QueryInfo, error) {
	res, info, err := s.execute(ctx, tenant, sql)
	if res != nil {
		res.Box()
	}
	return res, info, err
}

// execute is Execute with a columnar answer (Result.Vecs, Rows nil):
// the engine is reached only through the non-boxing entry points
// (DB.ExecParsedColumnar for a solo query, DB.ExecParsedBatchColumnar
// for a dispatched group), and the wire handlers encode the columns.
func (s *Server) execute(ctx context.Context, tenant, sql string) (*hashstash.Result, QueryInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := faultinject.Inject(faultinject.ServerAdmit); err != nil {
		return nil, QueryInfo{}, err
	}
	q, err := s.session(tenant).Parse(sql)
	if err != nil {
		return nil, QueryInfo{}, err
	}
	s.total.Add(1)

	// Memory-pressure governance at admission: Hard refuses with a
	// computed Retry-After (retriable). Refresh itself sheds cache at
	// Soft, and the engine vetoes index builds there.
	if gov := s.governor(); gov.Refresh() == memgov.Hard {
		gov.NoteReject()
		s.memRejects.Add(1)
		s.overloads.Add(1)
		return nil, QueryInfo{}, hashstasherr.Overloaded("memory pressure", gov.RetryAfter())
	}

	if _, hasDL := ctx.Deadline(); !hasDL {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
		defer cancel()
	}
	deadline, _ := ctx.Deadline()

	if s.cfg.DisableBatching {
		return s.solo(ctx, q, QueryInfo{Mode: "bypass-off"})
	}
	shape, ok := hashstash.BatchShape(q)
	if !ok {
		return s.solo(ctx, q, QueryInfo{Mode: "bypass-shape"})
	}

	p, info, err := s.admit(q, tenant, shape, deadline)
	if err != nil {
		return nil, info, err
	}
	if p == nil {
		if info.Mode == "solo" {
			// The shape was idle and this query now holds it: whatever
			// queues behind it dispatches when it ends, error or panic
			// included.
			defer s.release(shape)
		}
		return s.solo(ctx, q, info)
	}

	select {
	case <-p.done:
		return p.res, s.infoOf(p), p.err
	case <-ctx.Done():
		// A query already dispatched stays in its group, which runs to
		// its own deadline; this caller just stops waiting for the demux.
		s.withdraw(shape, p)
		return nil, QueryInfo{Mode: "canceled"}, hashstasherr.Canceled(ctx.Err())
	}
}

func (s *Server) infoOf(p *pending) QueryInfo {
	switch {
	case p.fallback:
		return QueryInfo{Mode: "fallback"}
	case p.batched:
		return QueryInfo{Batched: true, Mode: "batched"}
	default:
		return QueryInfo{Mode: "solo"}
	}
}

// solo executes a query outside the queue on the caller's goroutine.
// It registers with the drain accounting so Shutdown never closes the
// database under a running query.
func (s *Server) solo(ctx context.Context, q *hashstash.Query, info QueryInfo) (*hashstash.Result, QueryInfo, error) {
	switch info.Mode {
	case "degraded-deadline":
		s.degradedDeadline.Add(1)
	case "solo":
		s.rateBypass.Add(1)
	case "bypass-gain":
		s.noGainBypass.Add(1)
	case "bypass-breaker":
		s.breakerBypassed.Add(1)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.shutdownRejects.Add(1)
		return nil, info, fmt.Errorf("solo execution refused: %w", hashstasherr.ErrShuttingDown)
	}
	s.active++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.active--
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	s.soloQueries.Add(1)
	s.plansExecuted.Add(1)
	res, err := s.db.ExecParsedColumnar(ctx, q)
	return res, info, err
}

// shapeGate computes the memoized per-shape policy inputs (modeled
// sharing gain and solo cost estimate). Planning runs outside s.mu.
func (s *Server) shapeGate(shape string, q *hashstash.Query) (gainOK bool, estCost float64) {
	s.mu.Lock()
	sq := s.shapes[shape]
	if sq != nil && sq.gainChecked {
		gainOK, estCost = sq.gainOK, sq.estCost
		s.mu.Unlock()
		return gainOK, estCost
	}
	s.mu.Unlock()

	// The minimum group (k=2) decides the sign; bigger groups only gain
	// more. The estimate is reuse-aware, so it reflects the current
	// cache state at first sight of the shape.
	gain := s.db.EstimateSharingGain(q, 2)
	cost, err := s.db.EstimateCost(q)
	if err != nil {
		cost = 0
	}

	s.mu.Lock()
	sq = s.shape(shape)
	if !sq.gainChecked {
		sq.gainChecked = true
		sq.gainOK = gain > 0
		sq.estCost = cost
	}
	gainOK, estCost = sq.gainOK, sq.estCost
	s.mu.Unlock()
	return gainOK, estCost
}

// shape returns (creating) a shape's queue. Callers hold s.mu.
func (s *Server) shape(key string) *shapeQueue {
	sq := s.shapes[key]
	if sq == nil {
		sq = &shapeQueue{}
		s.shapes[key] = sq
	}
	return sq
}

// admit applies the admission policy. It returns the query's pending
// handle when it queued behind a running execution of its shape, or a
// nil handle when it runs at once: Mode "solo" when it found its shape
// idle and now holds it (the caller must release the shape), otherwise
// the bypass reason. Refusals are retriable errors.
func (s *Server) admit(q *hashstash.Query, tenant, shape string, deadline time.Time) (*pending, QueryInfo, error) {
	gainOK, estCost := s.shapeGate(shape, q)
	now := time.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.shutdownRejects.Add(1)
		return nil, QueryInfo{}, fmt.Errorf("admission refused: %w", hashstasherr.ErrShuttingDown)
	}
	sq := s.shape(shape)

	// Circuit breaker: a shape whose shared plans keep failing bypasses
	// batching entirely (solo execution still serves the query) until
	// the open interval elapses; the next group then probes recovery.
	if now.Before(sq.openUntil) {
		return nil, QueryInfo{Mode: "bypass-breaker"}, nil
	}
	if !gainOK {
		return nil, QueryInfo{Mode: "bypass-gain"}, nil
	}
	if !sq.running {
		sq.running = true
		return nil, QueryInfo{Mode: "solo"}, nil
	}
	// Deadline gate: a queued query waits out the running group, then
	// runs its own, each bounded by the modeled run time with 2x safety.
	// A budget that cannot absorb that degrades to solo, not an error.
	if deadline.Sub(now) < 4*time.Duration(estCost) {
		return nil, QueryInfo{Mode: "degraded-deadline"}, nil
	}

	// Bounded queue with per-tenant fair shares.
	tenantCap := int(float64(s.cfg.MaxQueue) * s.cfg.TenantShare)
	if tenantCap < 1 {
		tenantCap = 1
	}
	if s.queued >= s.cfg.MaxQueue || s.tenantQueued[tenant] >= tenantCap {
		s.overloads.Add(1)
		return nil, QueryInfo{}, fmt.Errorf("admission queue full: %w", hashstasherr.ErrOverloaded)
	}
	p := &pending{q: q, tenant: tenant, deadline: deadline, done: make(chan struct{})}
	sq.pending = append(sq.pending, p)
	s.queued++
	s.tenantQueued[tenant]++
	return p, QueryInfo{}, nil
}

// release ends one execution of a shape. Up to MaxBatch queued queries
// dispatch as the next group, on a goroutine counted in inflight (so
// Shutdown waits for it) that releases the shape again when the group
// ends; with nothing queued the shape goes idle.
func (s *Server) release(shape string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sq := s.shapes[shape]
	if len(sq.pending) == 0 {
		sq.running = false
		return
	}
	n := min(len(sq.pending), s.cfg.MaxBatch)
	batch := sq.pending[:n:n]
	sq.pending = sq.pending[n:]
	for _, p := range batch {
		s.dequeueLocked(p)
	}
	s.inflight++
	go s.runBatch(shape, batch)
}

// dequeueLocked drops one query's queue accounting. Callers hold s.mu.
func (s *Server) dequeueLocked(p *pending) {
	s.queued--
	s.tenantQueued[p.tenant]--
	if s.tenantQueued[p.tenant] <= 0 {
		delete(s.tenantQueued, p.tenant)
	}
}

// withdraw removes a query from its shape's queue if it is still there
// (its caller's context fired before its group dispatched).
func (s *Server) withdraw(shape string, p *pending) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sq := s.shapes[shape]
	for i, cand := range sq.pending {
		if cand == p {
			sq.pending = append(sq.pending[:i], sq.pending[i+1:]...)
			s.dequeueLocked(p)
			s.cond.Broadcast()
			return
		}
	}
}

// noteShared records a shared-plan outcome in the shape's circuit
// breaker: BreakerThreshold consecutive failures open it (exponential
// backoff, doubling per consecutive trip); any success closes it.
func (s *Server) noteShared(shape string, failed bool) {
	if s.cfg.BreakerThreshold <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sq := s.shapes[shape]
	if sq == nil {
		return
	}
	if failed {
		sq.failStreak++
		if sq.failStreak >= s.cfg.BreakerThreshold || !sq.openUntil.IsZero() {
			if sq.backoff <= 0 {
				sq.backoff = s.cfg.BreakerBackoff
			} else if sq.backoff < 16*s.cfg.BreakerBackoff {
				sq.backoff *= 2
			}
			sq.openUntil = time.Now().Add(sq.backoff)
			s.breakerTrips.Add(1)
		}
		return
	}
	if !sq.openUntil.IsZero() {
		s.breakerResets.Add(1)
	}
	sq.failStreak = 0
	sq.openUntil = time.Time{}
	sq.backoff = 0
}

// runBatch executes one dispatched group through the shared-plan path
// and demultiplexes per-query results to their pending handles. The
// batch runs under its own context bounded by the farthest member
// deadline — one member's cancellation never aborts companions. When
// the group ends it releases the shape to whatever queued meanwhile.
func (s *Server) runBatch(shape string, batch []*pending) {
	defer func() {
		s.mu.Lock()
		s.inflight--
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	defer s.release(shape)

	ctx := context.Background()
	var maxDL time.Time
	for _, p := range batch {
		if p.deadline.After(maxDL) {
			maxDL = p.deadline
		}
	}
	if !maxDL.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, maxDL)
		defer cancel()
	}

	if len(batch) == 1 {
		// A group of one: solo, not an error.
		p := batch[0]
		s.soloQueries.Add(1)
		s.plansExecuted.Add(1)
		p.res, p.err = s.db.ExecParsedColumnar(ctx, p.q)
		close(p.done)
		return
	}

	qs := make([]*hashstash.Query, len(batch))
	for i, p := range batch {
		qs[i] = p.q
	}
	br, err := s.db.ExecParsedBatchColumnar(ctx, qs)
	s.noteShared(shape, err != nil)
	if err != nil {
		// Shared-plan failure degrades every member to solo execution
		// under its own deadline.
		s.batchFallbacks.Add(1)
		for _, p := range batch {
			mctx := context.Background()
			var cancel context.CancelFunc
			if !p.deadline.IsZero() {
				mctx, cancel = context.WithDeadline(mctx, p.deadline)
			}
			s.soloQueries.Add(1)
			s.plansExecuted.Add(1)
			p.fallback = true
			p.res, p.err = s.db.ExecParsedColumnar(mctx, p.q)
			if cancel != nil {
				cancel()
			}
			close(p.done)
		}
		return
	}

	s.plansExecuted.Add(int64(len(br.Groups)))
	s.batches.Add(1)
	inShared := make([]bool, len(batch))
	for _, g := range br.Groups {
		if len(g) > 1 {
			s.sharedPlans.Add(1)
			s.batchedQueries.Add(int64(len(g)))
			for _, qi := range g {
				inShared[qi] = true
			}
		} else {
			s.soloQueries.Add(1)
		}
	}
	for i, p := range batch {
		p.res = br.Results[i]
		p.batched = inShared[i]
		close(p.done)
	}
}

// Close drains the server under the configured DrainTimeout. Prefer
// Shutdown for an explicit deadline.
func (s *Server) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	_ = s.Shutdown(ctx)
}

// Shutdown gracefully drains the server: new admissions are refused
// with a retriable ErrShuttingDown, and Shutdown blocks until every
// queued query has dispatched and every group and solo execution has
// finished — or ctx expires, in which case it returns ctx's
// error with work still draining in the background. Either way the
// tracked line-protocol connections are closed before returning, so
// blocked serveConn reads unwind. Shutdown is idempotent; concurrent
// calls all wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()

	// Wait for the drain, racing ctx. The watcher goroutine turns ctx
	// expiry into a cond broadcast so the wait loop can observe it.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		case <-stop:
		}
	}()

	// Queued queries still get served: each waits behind a running
	// execution of its shape, whose release dispatches it even while
	// closed, so the drain waits for the queue to empty too.
	s.mu.Lock()
	for (s.inflight > 0 || s.active > 0 || s.queued > 0) && ctx.Err() == nil {
		s.cond.Wait()
	}
	drained := s.inflight == 0 && s.active == 0 && s.queued == 0
	s.mu.Unlock()

	s.connMu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.conns = make(map[net.Conn]struct{})
	s.connMu.Unlock()

	if !drained {
		return fmt.Errorf("drain deadline: %w", ctx.Err())
	}
	return nil
}
