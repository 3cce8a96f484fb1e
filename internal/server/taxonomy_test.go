package server

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"hashstash"
	"hashstash/hashstasherr"
	"hashstash/internal/faultinject"
)

// TestErrorTaxonomy drives every failure class through the real wrap
// sites — parser, catalog, execution cancel, admission, shutdown,
// panic containment — and asserts each error (a) matches its sentinel
// through errors.Is, (b) exposes its structured form through
// errors.As where one exists, (c) carries the right retriability, and
// (d) maps to the right HTTP status.
func TestErrorTaxonomy(t *testing.T) {
	db := hashstash.Open()
	if err := db.LoadTPCH(0.001); err != nil {
		t.Fatal(err)
	}

	// Real errors from real boundaries.
	_, parseErr := db.Parse("SELEC broken FROM")
	unknownTblErr := db.InsertRows("nowhere", nil)
	_, unknownColErr := db.Parse("SELECT nope FROM customer")
	// An aggregate over a string column is a client mistake: the
	// parser rejects it before either of exec's guards can fail it.
	_, stringSumErr := db.Exec("SELECT SUM(c.c_name) FROM customer c")
	_, stringMinErr := db.Exec("SELECT MIN(c.c_name) FROM customer c")
	// Statements that parse but fail plan validation are client
	// mistakes too, and so is LIMIT 0 (a zero limit means "no limit" in
	// a plan, so the parser rejects it).
	_, notGroupedErr := db.Exec("SELECT c.c_name, c.c_age FROM customer c GROUP BY c.c_age")
	_, disconnectedErr := db.Exec("SELECT c.c_custkey FROM customer c, orders o")
	_, orderNotSelectedErr := db.Exec("SELECT c.c_age FROM customer c ORDER BY c.c_name")
	_, dupAliasErr := db.Exec("SELECT c.c_age FROM customer c, orders c WHERE c.c_custkey = c.o_custkey")
	_, limitZeroErr := db.Exec("SELECT c.c_age FROM customer c LIMIT 0")
	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()
	_, cancelErr := db.ExecContext(canceledCtx, "SELECT c_age FROM customer")
	internalErr := hashstasherr.Internal("sched.worker", "operator bug")
	overloadErr := hashstasherr.Overloaded("memory", 3*time.Second)
	shutdownErr := hashstasherr.ErrShuttingDown
	injectedErr := faultinject.ErrInjected

	cases := []struct {
		name      string
		err       error
		sentinel  error
		status    int
		retriable bool
	}{
		{"parse", parseErr, nil, http.StatusBadRequest, false},
		{"unknown-table", unknownTblErr, hashstasherr.ErrUnknownTable, http.StatusBadRequest, false},
		{"unknown-column", unknownColErr, hashstasherr.ErrUnknownColumn, http.StatusBadRequest, false},
		{"string-sum", stringSumErr, nil, http.StatusBadRequest, false},
		{"string-min", stringMinErr, nil, http.StatusBadRequest, false},
		{"not-grouped", notGroupedErr, nil, http.StatusBadRequest, false},
		{"disconnected-join", disconnectedErr, nil, http.StatusBadRequest, false},
		{"order-not-selected", orderNotSelectedErr, nil, http.StatusBadRequest, false},
		{"duplicate-alias", dupAliasErr, nil, http.StatusBadRequest, false},
		{"limit-zero", limitZeroErr, nil, http.StatusBadRequest, false},
		{"canceled", cancelErr, hashstasherr.ErrCanceled, http.StatusRequestTimeout, false},
		{"internal", internalErr, hashstasherr.ErrInternal, http.StatusInternalServerError, false},
		{"injected-fault", injectedErr, hashstasherr.ErrInternal, http.StatusInternalServerError, false},
		{"overloaded", overloadErr, hashstasherr.ErrOverloaded, http.StatusTooManyRequests, true},
		{"shutting-down", shutdownErr, hashstasherr.ErrShuttingDown, http.StatusServiceUnavailable, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.err == nil {
				t.Fatal("wrap site produced no error")
			}
			if tc.sentinel != nil && !errors.Is(tc.err, tc.sentinel) {
				t.Errorf("errors.Is(%v, %v) = false", tc.err, tc.sentinel)
			}
			if got := StatusFor(tc.err); got != tc.status {
				t.Errorf("StatusFor = %d, want %d", got, tc.status)
			}
			if got := hashstasherr.IsRetriable(tc.err); got != tc.retriable {
				t.Errorf("IsRetriable = %v, want %v", got, tc.retriable)
			}
		})
	}

	// Structured forms through errors.As.
	var pe *hashstasherr.ParseError
	if !errors.As(parseErr, &pe) || pe.Pos < 0 || pe.Msg == "" {
		t.Errorf("parse error lacks structure: %#v", parseErr)
	}
	var ce *hashstasherr.CanceledError
	if !errors.As(cancelErr, &ce) || !errors.Is(ce.Cause, context.Canceled) {
		t.Errorf("canceled error lacks cause: %#v", cancelErr)
	}
	var ie *hashstasherr.InternalError
	if !errors.As(internalErr, &ie) || ie.Op != "sched.worker" || len(ie.Stack) == 0 {
		t.Errorf("internal error lacks op/stack: %#v", internalErr)
	}
	var oe *hashstasherr.OverloadedError
	if !errors.As(overloadErr, &oe) || oe.RetryAfter != 3*time.Second {
		t.Errorf("overloaded error lacks retry hint: %#v", overloadErr)
	}

	// Double recover must keep the original containment site's stack.
	rewrapped := hashstasherr.Internal("outer", internalErr)
	var ie2 *hashstasherr.InternalError
	if !errors.As(rewrapped, &ie2) || ie2.Op != "sched.worker" {
		t.Errorf("double recover lost the original boundary: %#v", rewrapped)
	}

	// A panic of a typed error stays matchable through the recover.
	wrapped := hashstasherr.Internal("exec.serial", faultinject.ErrInjected)
	if !errors.Is(wrapped, hashstasherr.ErrInternal) {
		t.Errorf("panicked injected fault lost ErrInternal: %v", wrapped)
	}
}
