// Package hashstasherr is the typed error set of the public HashStash
// API. Callers branch on failure classes with errors.Is / errors.As
// instead of matching message strings, and the serving front-end maps
// them onto wire status codes (400 for unknown tables/columns and
// parse errors, 408 for cancellation, 429 for admission backpressure).
//
// The sentinels are wrapped, not returned bare: an error produced deep
// in the catalog still reads "catalog: unknown table \"foo\"" but
// satisfies errors.Is(err, hashstasherr.ErrUnknownTable).
package hashstasherr

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// Sentinel errors. Every error the engine returns for these failure
// classes wraps the matching sentinel.
var (
	// ErrUnknownTable marks a reference to a table the catalog does not
	// know (queries, inserts, index builds).
	ErrUnknownTable = errors.New("unknown table")
	// ErrUnknownColumn marks a reference to a column (or alias) that
	// does not resolve against the queried relations.
	ErrUnknownColumn = errors.New("unknown column")
	// ErrRetriable marks transient failures the caller may retry
	// verbatim: admission backpressure, shutdown draining. Permanent
	// failures (parse errors, unknown tables, internal faults) never
	// carry it.
	ErrRetriable = errors.New("retriable")
	// ErrOverloaded is admission backpressure: the serving queue (or a
	// tenant's fair share of it) is full, or the memory governor is
	// above its hard watermark. Retry later; the server maps it to
	// HTTP 429 and attaches Retry-After when the governor computed one.
	ErrOverloaded = fmt.Errorf("server overloaded: %w", ErrRetriable)
	// ErrShuttingDown marks work refused or abandoned because the
	// server is draining. Safe to retry against a healthy replica.
	ErrShuttingDown = fmt.Errorf("server shutting down: %w", ErrRetriable)
	// ErrCanceled marks a query aborted by its context (cancellation or
	// deadline) before completing. The concrete error also wraps the
	// context's own cause, so errors.Is(err, context.Canceled) and
	// errors.Is(err, context.DeadlineExceeded) keep working.
	ErrCanceled = errors.New("query canceled")
	// ErrInternal marks a contained engine failure: an operator panic
	// converted to an error at an isolation boundary, or an injected
	// fault. The query that hit it failed; the process and every other
	// in-flight query carried on.
	ErrInternal = errors.New("internal failure")
)

// IsRetriable reports whether the caller may retry the statement
// verbatim (the failure is load- or lifecycle-transient, not about the
// statement itself).
func IsRetriable(err error) bool { return errors.Is(err, ErrRetriable) }

// ParseError is a structured SQL parse failure: the byte offset of the
// offending token in the statement, the parser's message and a short
// source excerpt starting at the offset.
type ParseError struct {
	// Pos is the byte offset into the SQL text where parsing failed.
	Pos int
	// Msg is the parser's diagnosis ("expected FROM", "bad number ...").
	Msg string
	// Context is a short excerpt of the source at Pos.
	Context string
	// Err optionally carries a sentinel the failure also belongs to
	// (an unresolvable column reference wraps ErrUnknownColumn).
	Err error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("sqlparser: %s (at %q)", e.Msg, e.Context)
}

// Unwrap exposes the optional underlying sentinel.
func (e *ParseError) Unwrap() error { return e.Err }

// CanceledError is a context-aborted query. It unwraps to both
// ErrCanceled and the context's own error, so callers can branch on
// either.
type CanceledError struct {
	// Cause is the context's error (context.Canceled or
	// context.DeadlineExceeded).
	Cause error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("hashstash: query canceled: %v", e.Cause)
}

// Unwrap exposes ErrCanceled and the context cause for errors.Is.
func (e *CanceledError) Unwrap() []error { return []error{ErrCanceled, e.Cause} }

// Canceled wraps a context error as a CanceledError (ErrCanceled bare
// when cause is nil).
func Canceled(cause error) error {
	if cause == nil {
		return ErrCanceled
	}
	return &CanceledError{Cause: cause}
}

// InternalError is a recovered panic (or injected fault) converted to
// an error at a containment boundary: the scheduler worker loop, a
// serial exec path, a shard scatter leg. It carries the panic value,
// the goroutine stack captured at the recover site and the operation
// label, and unwraps to ErrInternal — plus the panic's own error when
// the panic value was an error, so injected sentinel faults stay
// matchable through the recover.
type InternalError struct {
	// Op labels the containment boundary that caught the panic
	// ("sched.run", "sched.worker", "optimizer.plan", ...).
	Op string
	// Panic is the recovered value.
	Panic interface{}
	// Stack is the goroutine stack captured at the recover site.
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("hashstash: internal failure in %s: %v", e.Op, e.Panic)
}

// Unwrap exposes ErrInternal, and the panic value itself when it was
// an error (so errors.Is sees through panics of typed errors).
func (e *InternalError) Unwrap() []error {
	if cause, ok := e.Panic.(error); ok {
		return []error{ErrInternal, cause}
	}
	return []error{ErrInternal}
}

// Internal converts a recovered panic value into an *InternalError,
// capturing the stack at the call site. If the panic value already is
// an *InternalError (a double recover across nested boundaries), it is
// returned unchanged so the original stack survives.
func Internal(op string, recovered interface{}) error {
	if ie, ok := recovered.(*InternalError); ok {
		return ie
	}
	if err, ok := recovered.(error); ok {
		var ie *InternalError
		if errors.As(err, &ie) {
			return err
		}
	}
	return &InternalError{Op: op, Panic: recovered, Stack: debug.Stack()}
}

// OverloadedError is memory-governor backpressure: admission refused
// above the hard watermark, with a computed pause before the client
// should retry. Unwraps to ErrOverloaded (and through it ErrRetriable).
type OverloadedError struct {
	// Reason names the saturated resource ("memory", "queue").
	Reason string
	// RetryAfter is the suggested client pause; the HTTP front-end
	// emits it as a Retry-After header.
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("hashstash: overloaded (%s), retry after %s", e.Reason, e.RetryAfter)
}

// Unwrap exposes ErrOverloaded for errors.Is.
func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// Overloaded builds governor backpressure with a retry hint.
func Overloaded(reason string, retryAfter time.Duration) error {
	return &OverloadedError{Reason: reason, RetryAfter: retryAfter}
}
