package cluster

// Server binds a Coordinator to one listener speaking both transports.
// The first byte of every accepted connection decides its binding: binary
// frames open with frameMagic (0xB5, outside ASCII), an HTTP request line
// opens with a method letter, so one cluster port serves JSON workers,
// binary workers, and mixed fleets mid-upgrade without a second listener
// or any out-of-band configuration.
//
// A binary connection is a synchronous frame loop — read one request
// frame, run the verb against the coordinator, write one response frame —
// with per-connection scratch (frame buffer, request structs, lease
// batch) reused across frames, so a worker's steady-state traffic
// allocates nothing on the server past the coordinator's own pooled
// dispatch path.

import (
	"bufio"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"
)

// binaryIdleTimeout bounds how long a binary connection may sit between
// frames before the server reclaims it; workers that long-poll leases
// traffic well inside it, and a worker that lost interest redials.
const binaryIdleTimeout = 5 * time.Minute

// Server serves a coordinator's protocol on a listener, routing each
// connection to the JSON/HTTP or binary binding by its first byte.
type Server struct {
	co   *Coordinator
	http *http.Server

	mu     sync.Mutex
	ln     net.Listener
	httpLn *chanListener
	conns  map[net.Conn]struct{}
	closed bool
}

// NewServer builds a dual-transport server for co.
func NewServer(co *Coordinator) *Server {
	return &Server{
		co:    co,
		http:  &http.Server{Handler: co.Handler()},
		conns: make(map[net.Conn]struct{}),
	}
}

// ListenAndServe listens on addr and serves until Close; it returns the
// bound listener address on a channel-free path by starting the accept
// loop itself. Use Serve with your own listener to control lifecycle.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until the listener closes, sniffing
// each connection's first byte to pick its transport. It blocks.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("cluster: server closed")
	}
	s.ln = ln
	httpLn := newChanListener(ln.Addr())
	s.httpLn = httpLn
	s.mu.Unlock()

	httpDone := make(chan error, 1)
	go func() { httpDone <- s.http.Serve(httpLn) }()

	var err error
	for {
		var conn net.Conn
		conn, err = ln.Accept()
		if err != nil {
			break
		}
		go s.route(conn)
	}
	httpLn.Close()
	<-httpDone
	if s.isClosed() {
		return nil
	}
	return err
}

// Addr returns the bound listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the listener and every open connection.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.http.Close()
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// track registers a connection for Close; false means the server is
// already down and the connection must not be served.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// route sniffs a connection's first byte and hands it to its binding.
// The sniff happens here, per connection, so a slow client cannot block
// the accept loop.
func (s *Server) route(conn net.Conn) {
	if !s.track(conn) {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(conn)
	first, err := br.Peek(1)
	if err != nil {
		s.untrack(conn)
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	if first[0] == frameMagic {
		defer s.untrack(conn)
		defer conn.Close()
		s.serveBinary(conn, br)
		return
	}
	// HTTP: hand the buffered connection to the embedded http.Server. The
	// HTTP server owns the connection from here (untrack on close happens
	// via the wrapper).
	s.httpLn.deliver(&servedConn{Conn: conn, r: br, done: func() { s.untrack(conn) }})
}

// serveBinary runs one connection's frame loop with per-connection
// scratch reused across frames.
func (s *Server) serveBinary(conn net.Conn, br *bufio.Reader) {
	bw := bufio.NewWriter(conn)
	var (
		frame   []byte
		out     []byte
		lease   LeaseRequest
		results ResultsRequest
		tasks   []WireTask
	)
	for {
		conn.SetReadDeadline(time.Now().Add(binaryIdleTimeout))
		typ, payload, buf, err := readFrame(br, frame[:0])
		frame = buf
		if err != nil {
			return
		}
		out = out[:0]
		switch typ {
		case msgRegister:
			var req RegisterRequest
			if err := decodeRegisterRequest(payload, &req); err != nil {
				out = appendError(beginFrame(out, msgError), 400, err.Error())
				break
			}
			resp, err := s.co.Register(req)
			if err != nil {
				out = appendError(beginFrame(out, msgError), 400, err.Error())
				break
			}
			out = appendRegisterResponse(beginFrame(out, msgRegisterResp), resp)
		case msgLease:
			if err := decodeLeaseRequest(payload, &lease); err != nil {
				out = appendError(beginFrame(out, msgError), 400, err.Error())
				break
			}
			var err error
			tasks, err = s.co.LeaseAppend(lease, tasks[:0])
			if err != nil {
				out = appendError(beginFrame(out, msgError), uint16(statusFor(err)), err.Error())
				break
			}
			out = appendLeaseResponse(beginFrame(out, msgLeaseResp), tasks)
		case msgResults:
			if err := decodeResultsRequest(payload, &results); err != nil {
				out = appendError(beginFrame(out, msgError), 400, err.Error())
				break
			}
			if err := s.co.Results(results); err != nil {
				out = appendError(beginFrame(out, msgError), uint16(statusFor(err)), err.Error())
				break
			}
			out = beginFrame(out, msgOK)
		case msgHeartbeat, msgLeave:
			var id string
			var gen int64
			if err := decodeIDGen(payload, &id, &gen); err != nil {
				out = appendError(beginFrame(out, msgError), 400, err.Error())
				break
			}
			var err error
			if typ == msgHeartbeat {
				err = s.co.Heartbeat(HeartbeatRequest{ID: id, Gen: gen})
			} else {
				err = s.co.Leave(LeaveRequest{ID: id, Gen: gen})
			}
			if err != nil {
				out = appendError(beginFrame(out, msgError), uint16(statusFor(err)), err.Error())
				break
			}
			out = beginFrame(out, msgOK)
		default:
			out = appendError(beginFrame(out, msgError), 400, "unknown message type")
		}
		conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if _, err := bw.Write(finishFrame(out)); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// servedConn is a connection whose first bytes were consumed by the
// sniffer: reads drain the bufio.Reader first, and close runs the
// server's untrack hook exactly once.
type servedConn struct {
	net.Conn
	r    *bufio.Reader
	once sync.Once
	done func()
}

func (c *servedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

func (c *servedConn) Close() error {
	c.once.Do(c.done)
	return c.Conn.Close()
}

// chanListener adapts routed connections back into a net.Listener for
// the embedded HTTP server.
type chanListener struct {
	ch    chan net.Conn
	addr  net.Addr
	close sync.Once
	done  chan struct{}
}

func newChanListener(addr net.Addr) *chanListener {
	return &chanListener{ch: make(chan net.Conn), addr: addr, done: make(chan struct{})}
}

// deliver hands a connection to Accept, closing it if the listener is
// already gone.
func (l *chanListener) deliver(c net.Conn) {
	select {
	case l.ch <- c:
	case <-l.done:
		c.Close()
	}
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error {
	l.close.Do(func() { close(l.done) })
	return nil
}

func (l *chanListener) Addr() net.Addr { return l.addr }
