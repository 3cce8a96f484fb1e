// Package server is the HashStash serving front-end: a network-facing
// layer over DB. Every admitted query runs at once on its caller's
// goroutine through DB.ExecParsedColumnar, and its columns are encoded
// straight to the wire. Queries never wait for each other: shared plans
// (Section 4 of the paper) come from the query-batch interface a client
// submits, DB.ExecBatch, not from the server grouping arrivals.
//
// Admission has one gate: the memory governor. At its hard watermark a
// query is refused with hashstasherr.ErrOverloaded (HTTP 429) and a
// computed Retry-After, never by blocking. A query without a deadline
// runs under Config.DefaultTimeout, and Shutdown drains the queries in
// flight before it returns.
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

// Config tunes the server. Zero values take the defaults.
type Config struct {
	// DefaultTimeout applies to queries whose context carries no
	// deadline. Default 10s.
	DefaultTimeout time.Duration
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
	// Governor overrides the database's memory governor (tests inject
	// one with synthetic pressure). Nil uses DB.MemoryGovernor().
	Governor *memgov.Governor
}

func (c Config) withDefaults() Config {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
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
	return c
}

// Stats are the server's cumulative counters (atomically maintained;
// Stats() snapshots them).
type Stats struct {
	// TotalQueries counts every statement Execute receives, counted
	// before it parses: statements refused as unparseable (400s) or by
	// an admission fault are included.
	TotalQueries int64
	// BatchedQueries always reads 0.
	//
	// Deprecated: the server runs every query solo; shared plans run
	// through DB.ExecBatch. The field stays for readers of /stats.
	BatchedQueries int64
	// PlansExecuted counts executed plans: one per query that passed
	// admission.
	PlansExecuted int64
	// RateBypass always reads 0.
	//
	// Deprecated: no query waits for another, so none bypasses a wait.
	// The field stays for readers of /stats.
	RateBypass int64
	// Overloads counts admissions refused with ErrOverloaded by the
	// memory governor at its hard watermark.
	Overloads int64
	// ShutdownRejects counts queries refused because the server was
	// draining.
	ShutdownRejects int64
}

// QueryInfo describes how one query was executed.
type QueryInfo struct {
	// Batched reports execution inside a multi-query shared plan; the
	// server runs every query solo, so it is always false.
	Batched bool
	// Mode is "solo" for every query that reached execution.
	Mode string
}

// Server is the serving front-end over one DB.
type Server struct {
	db  *hashstash.DB
	cfg Config

	mu     sync.Mutex
	cond   *sync.Cond // signals active drops for Shutdown
	active int        // executions on caller goroutines
	closed bool

	// connMu guards the live line-protocol connections; Shutdown closes
	// them after the drain so serveConn loops exit.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	sessMu   sync.Mutex
	sessions map[string]*hashstash.Session

	total           atomic.Int64
	plansExecuted   atomic.Int64
	overloads       atomic.Int64
	shutdownRejects atomic.Int64
}

// New wraps a database in a serving front-end.
func New(db *hashstash.DB, cfg Config) *Server {
	s := &Server{
		db:       db,
		cfg:      cfg.withDefaults(),
		conns:    make(map[net.Conn]struct{}),
		sessions: make(map[string]*hashstash.Session),
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
	return Stats{
		TotalQueries:    s.total.Load(),
		PlansExecuted:   s.plansExecuted.Load(),
		Overloads:       s.overloads.Load(),
		ShutdownRejects: s.shutdownRejects.Load(),
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

// Execute runs one SQL statement for a tenant on the calling goroutine,
// honoring ctx: cancellation or deadline expiry while the query runs
// returns an error wrapping hashstasherr.ErrCanceled, and a refusal by
// the memory governor one wrapping hashstasherr.ErrOverloaded. The
// answer comes back boxed into Result.Rows, as the library entry points
// return it; the wire handlers take the same path without the boxing.
func (s *Server) Execute(ctx context.Context, tenant, sql string) (*hashstash.Result, QueryInfo, error) {
	res, info, err := s.execute(ctx, tenant, sql)
	if res != nil {
		res.Box()
	}
	return res, info, err
}

// execute is Execute with a columnar answer (Result.Vecs, Rows nil):
// the engine is reached only through DB.ExecParsedColumnar, and the
// wire handlers encode the columns.
func (s *Server) execute(ctx context.Context, tenant, sql string) (*hashstash.Result, QueryInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.total.Add(1)
	if err := faultinject.Inject(faultinject.ServerAdmit); err != nil {
		return nil, QueryInfo{}, err
	}
	q, err := s.session(tenant).Parse(sql)
	if err != nil {
		return nil, QueryInfo{}, err
	}

	// Memory-pressure governance at admission: Hard refuses with a
	// computed Retry-After (retriable). Refresh itself sheds cache at
	// Soft, and the engine vetoes index builds there.
	if gov := s.governor(); gov.Refresh() == memgov.Hard {
		gov.NoteReject()
		s.overloads.Add(1)
		return nil, QueryInfo{}, hashstasherr.Overloaded("memory pressure", gov.RetryAfter())
	}

	if _, hasDL := ctx.Deadline(); !hasDL {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
		defer cancel()
	}
	return s.solo(ctx, q)
}

// solo executes a query on the caller's goroutine. It registers with
// the drain accounting so Shutdown never closes the database under a
// running query.
func (s *Server) solo(ctx context.Context, q *hashstash.Query) (*hashstash.Result, QueryInfo, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.shutdownRejects.Add(1)
		return nil, QueryInfo{}, fmt.Errorf("admission refused: %w", hashstasherr.ErrShuttingDown)
	}
	s.active++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.active--
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	s.plansExecuted.Add(1)
	res, err := s.db.ExecParsedColumnar(ctx, q)
	return res, QueryInfo{Mode: "solo"}, err
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
// running query has finished — or ctx expires, in which case it
// returns ctx's error with work still draining in the background.
// Either way the tracked line-protocol connections are closed before
// returning, so blocked serveConn reads unwind. Shutdown is idempotent;
// concurrent calls all wait.
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

	s.mu.Lock()
	for s.active > 0 && ctx.Err() == nil {
		s.cond.Wait()
	}
	drained := s.active == 0
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
