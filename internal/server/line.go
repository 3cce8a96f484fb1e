package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"time"
)

// ServeLine runs the keep-alive line protocol on l until the listener
// closes: one statement per line, one JSON result object per line.
//
//	HELLO <tenant>   bind the connection's tenant        -> OK <tenant>
//	STATS            server statistics                   -> one JSON line
//	QUIT             close the connection
//	<sql>            execute                             -> one JSON line
//
// A connection is a session: its statement texts hit its tenant's
// prepared-statement cache. Connections carry read and write deadlines
// (Config.ReadTimeout / WriteTimeout): a half-open client that stops
// sending — or stops reading — is reaped instead of pinning a goroutine
// forever. Shutdown closes tracked connections after the drain.
func (s *Server) ServeLine(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !s.trackConn(conn) {
			_ = conn.Close() // draining: refuse instead of serving
			continue
		}
		go s.serveConn(conn)
	}
}

// trackConn registers a live connection for Shutdown to close; it
// reports false when the server is already draining.
func (s *Server) trackConn(conn net.Conn) bool {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return false
	}
	s.connMu.Lock()
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
	return true
}

func (s *Server) untrackConn(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// lineError is a failed statement's line; a successful one is written
// by appendResult with the same batched and mode fields.
type lineError struct {
	Batched bool   `json:"batched"`
	Mode    string `json:"mode,omitempty"`
	Error   string `json:"error"`
}

// errTrackingReader records the first read error so serveConn can
// tell a real statement from the partial tail bufio.Scanner emits
// when a read deadline (or the peer) kills the connection mid-line.
type errTrackingReader struct {
	conn net.Conn
	err  error
}

func (r *errTrackingReader) Read(p []byte) (int, error) {
	n, err := r.conn.Read(p)
	if err != nil && r.err == nil {
		r.err = err
	}
	return n, err
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	defer s.untrackConn(conn)
	// A panic while serving one connection (encoding a pathological
	// value, a bug in the handler) drops that connection, not the
	// server: the accept loop and every other connection keep going.
	defer func() { recover() }()

	tenant := ""
	in := &errTrackingReader{conn: conn}
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	out := bufio.NewWriter(conn)
	enc := json.NewEncoder(out)
	for {
		if s.cfg.ReadTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		if !scanner.Scan() || in.err != nil {
			// in.err set with a token in hand means the token is an
			// unterminated tail (deadline or disconnect mid-line) — a
			// half-open client's fragment, never executed.
			return
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			continue
		case line == "QUIT":
			return
		case strings.HasPrefix(line, "HELLO "):
			tenant = strings.TrimSpace(strings.TrimPrefix(line, "HELLO "))
			_, _ = out.WriteString("OK " + tenant + "\n")
		case line == "STATS":
			_ = enc.Encode(s.Stats())
		default:
			res, info, err := s.execute(context.Background(), tenant, line)
			if err != nil {
				_ = enc.Encode(lineError{Batched: info.Batched, Mode: info.Mode, Error: err.Error()})
			} else {
				buf := getBuf()
				*buf = appendResult(*buf, res, info, true)
				_, _ = out.Write(*buf) // a failed write fails the Flush below
				putBuf(buf)
			}
		}
		if s.cfg.WriteTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		if out.Flush() != nil {
			return
		}
	}
}
