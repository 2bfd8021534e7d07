package transport

import (
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Local runs one session inside this process: the host's serving loop
// serves hcfg on one end of an in-memory connection, and the returned
// Conn is dialed on the other. Only the socket is replaced — hello,
// admission, frames, credit and accounting are the TCP session's, and a
// tap on cfg sees real frames. Liveness is off on both ends (Timeout and
// Heartbeat are overridden): a peer in this address space cannot
// silently vanish. Close returns once the serving side has finished,
// its streams, admission slots and route released.
func Local(hcfg HostConfig, cfg Config) (*Conn, error) {
	win, err := dialWindow(cfg.Window)
	if err != nil {
		return nil, err
	}
	hcfg.Timeout = -1
	cfg.Timeout, cfg.Heartbeat = -1, -1
	client, server := newPipe()
	// A listenerless host: only its serving loop runs, for this one
	// connection.
	h := &Host{cfg: hcfg, ctx: context.Background()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.serveSession(server)
	}()
	c, err := handshake(client, cfg, win)
	if err != nil {
		<-served
		return nil, err
	}
	c.served = served
	return c, nil
}

// pipeSize is the buffer each direction of an in-memory connection
// holds: a writer parks once this many bytes are unread. It bounds the
// bytes in transit, not the frame size — a larger write is copied
// through in pieces as the reader drains.
const pipeSize = 16 << 10

// newPipe returns the two ends of a buffered in-memory connection.
func newPipe() (a, b *pipeConn) {
	ab, ba := &pipeBuf{}, &pipeBuf{}
	ab.cond.L, ba.cond.L = &ab.mu, &ba.mu
	return &pipeConn{rd: ba, wr: ab}, &pipeConn{rd: ab, wr: ba}
}

// pipeBuf is one direction of a pipe: a fixed byte ring with one
// writer parking while it is full and one reader while it is empty
// (each side of a session writes under its frame-write lock and reads
// from its single read loop). The two never wait at once — the ring
// cannot be both full and empty — so they share one condition.
type pipeBuf struct {
	mu      sync.Mutex
	cond    sync.Cond
	buf     [pipeSize]byte
	head, n int // read offset and unread byte count
	closed  bool
}

func (p *pipeBuf) read(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.n == 0 {
		if p.closed {
			return 0, io.EOF
		}
		p.cond.Wait()
	}
	k := copy(b, p.buf[p.head:min(p.head+p.n, len(p.buf))])
	if k < len(b) && k < p.n { // the unread bytes wrap to the ring's start
		k += copy(b[k:], p.buf[:p.n-k])
	}
	p.head = (p.head + k) % len(p.buf)
	p.n -= k
	p.cond.Signal()
	return k, nil
}

func (p *pipeBuf) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	written := 0
	for len(b) > 0 {
		for p.n == len(p.buf) && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			return written, io.ErrClosedPipe
		}
		// The free space runs from the tail to the ring's end, or to the
		// head once the tail has wrapped.
		tail := (p.head + p.n) % len(p.buf)
		end := len(p.buf)
		if tail < p.head {
			end = p.head
		}
		k := copy(p.buf[tail:end], b)
		p.n += k
		b = b[k:]
		written += k
		p.cond.Signal()
	}
	return written, nil
}

// close ends the direction: writes fail from now on, and the reader
// drains what is buffered and then reads EOF — unless discard drops the
// buffered bytes too.
func (p *pipeBuf) close(discard bool) {
	p.mu.Lock()
	p.closed = true
	if discard {
		p.n = 0
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// pipeConn is one end of a pipe as a net.Conn. Deadlines are accepted
// and ignored: sessions over a pipe run with liveness off (see Local).
type pipeConn struct {
	rd, wr *pipeBuf
	closed atomic.Bool
}

func (c *pipeConn) Read(b []byte) (int, error) {
	n, err := c.rd.read(b)
	if err == io.EOF && c.closed.Load() {
		err = net.ErrClosed
	}
	return n, err
}

func (c *pipeConn) Write(b []byte) (int, error) { return c.wr.write(b) }

// Close shuts both directions: unread input is dropped and the peer's
// writes fail, while the peer still drains what this end wrote before
// reading EOF — the order a TCP close gives.
func (c *pipeConn) Close() error {
	c.closed.Store(true)
	c.rd.close(true)
	c.wr.close(false)
	return nil
}

func (c *pipeConn) LocalAddr() net.Addr              { return pipeAddr{} }
func (c *pipeConn) RemoteAddr() net.Addr             { return pipeAddr{} }
func (c *pipeConn) SetDeadline(time.Time) error      { return nil }
func (c *pipeConn) SetReadDeadline(time.Time) error  { return nil }
func (c *pipeConn) SetWriteDeadline(time.Time) error { return nil }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
