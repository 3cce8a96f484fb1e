package hashstash

import (
	"context"
	"sync"
	"sync/atomic"
)

// Session is a lightweight per-connection handle over a DB: it carries
// a tenant identity (the serving front-end keeps one session, and so
// one parse cache, per tenant), a cache that memoizes Parse by SQL
// text, and session-scoped counters. Sessions are cheap (create one per
// connection) and safe for concurrent use; the underlying DB is
// shared.
type Session struct {
	db     *DB
	tenant string

	mu       sync.Mutex
	prepared map[string]*Query

	queries      atomic.Int64
	preparedHits atomic.Int64
}

// sessionPreparedCap bounds the per-session parse cache. Serving
// workloads re-send a small family of statement texts per connection;
// past the cap the cache resets rather than tracking recency (a miss
// is just one re-parse).
const sessionPreparedCap = 1024

// SessionOption configures NewSession.
type SessionOption func(*Session)

// WithTenant sets the session's tenant identity (the serving
// front-end's scope for its prepared-statement cache). Empty means the
// default tenant.
func WithTenant(tenant string) SessionOption {
	return func(s *Session) { s.tenant = tenant }
}

// NewSession opens a per-connection handle.
func (db *DB) NewSession(opts ...SessionOption) *Session {
	s := &Session{db: db, prepared: make(map[string]*Query)}
	for _, o := range opts {
		o(s)
	}
	return s
}

// DB returns the underlying database.
func (s *Session) DB() *DB { return s.db }

// Tenant returns the session's tenant identity.
func (s *Session) Tenant() string { return s.tenant }

// Parse memoizes DB.Parse by statement text: a connection replaying
// the same statement family parses each text once. Parsed queries are
// immutable, so cached pointers are shared safely.
func (s *Session) Parse(sql string) (*Query, error) {
	s.mu.Lock()
	q, ok := s.prepared[sql]
	s.mu.Unlock()
	if ok {
		s.preparedHits.Add(1)
		return q, nil
	}
	q, err := s.db.Parse(sql)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if len(s.prepared) >= sessionPreparedCap {
		s.prepared = make(map[string]*Query)
	}
	s.prepared[sql] = q
	s.mu.Unlock()
	return q, nil
}

// ExecContext parses (through the session's prepared cache) and runs
// one query under ctx.
func (s *Session) ExecContext(ctx context.Context, sql string) (*Result, error) {
	q, err := s.Parse(sql)
	if err != nil {
		return nil, err
	}
	s.queries.Add(1)
	return s.db.ExecParsed(ctx, q)
}

// Exec is ExecContext under context.Background().
func (s *Session) Exec(sql string) (*Result, error) {
	return s.ExecContext(context.Background(), sql)
}

// SessionStats are session-scoped counters.
type SessionStats struct {
	// Queries counts queries executed through the session.
	Queries int64
	// PreparedHits counts Parse calls served from the prepared-shape
	// cache.
	PreparedHits int64
}

// Stats snapshots the session counters.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		Queries:      s.queries.Load(),
		PreparedHits: s.preparedHits.Load(),
	}
}
