package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dxml/internal/obs"
)

// Liveness defaults. The kernel peer pings after DefaultHeartbeat of
// write silence; both ends refuse to wait more than DefaultTimeout for
// the peer's next frame. Because every ping is answered with a pong,
// an idle but healthy session sees traffic in both directions within
// one heartbeat, and a dead peer is detected within one timeout — never
// the unbounded hang the pre-liveness wire allowed.
const (
	DefaultHeartbeat = 2 * time.Second
	DefaultTimeout   = 10 * time.Second
)

// resolveLiveness maps a config duration to its effective value: zero
// means the default, negative disables (returns 0).
func resolveLiveness(d, def time.Duration) time.Duration {
	switch {
	case d == 0:
		return def
	case d < 0:
		return 0
	}
	return d
}

// Config parameterizes a session from the kernel peer's side.
type Config struct {
	// Digest is the design fingerprint exchanged in the hello; the
	// server refuses a mismatch. See Digest.
	Digest []byte
	// Chunk is the fragment chunk budget in bytes the server will
	// serialize with (math.MaxInt or <= 0 for unchunked).
	Chunk int
	// Window is the per-stream credit window this receiver grants in the
	// hello: the host may pipeline up to Window unacked chunks per
	// stream. Zero means DefaultWindow; negative is invalid
	// (ErrInvalidWindow); values above the transport-wide maximum are
	// clamped. The host may lower the grant (its own cap); the effective
	// window is echoed per stream in the begin/subscribed frame. Window 1
	// degenerates to stop-and-wait.
	Window int
	// Heartbeat is the ping interval: after this much write silence the
	// client sends a ping so the host sees traffic. Zero means
	// DefaultHeartbeat; negative disables the heartbeat.
	Heartbeat time.Duration
	// Timeout is the liveness window: every frame read and write
	// carries a deadline this far out, and missing it fails the session
	// with a TimeoutError. Zero means DefaultTimeout; negative disables
	// deadlines (the pre-liveness behavior). It should comfortably
	// exceed Heartbeat.
	Timeout time.Duration
	// Obs, when non-nil, receives this session's telemetry: frame
	// encode/decode timing and per-fragment lifecycle spans tagged with
	// the trace ID minted at the hello. Nil (the default) is the no-op
	// sink — the hot paths then pay one nil check and nothing else.
	Obs *obs.Collector
	// Tap, when non-nil, observes every frame this session writes or
	// reads, as raw wire bytes tagged with the session's trace ID — the
	// flight-recorder seam. Nil (the default) costs the hot paths one
	// nil check and nothing else.
	Tap Tap
}

// Conn is an established session with one peer host, from the kernel
// peer's side, over a TCP socket (Dial) or an in-memory connection
// (Local). It multiplexes concurrent verdict requests and fragment
// streams over the one connection; methods are safe for concurrent use.
// It is the package's only Session implementation.
type Conn struct {
	endpoint

	heartbeat time.Duration // ping-after-idle interval (0: no pings)
	lastWrite atomic.Int64  // UnixNano of the most recent frame write
	pingID    atomic.Uint32

	window  int       // credit window granted per stream (chunks)
	bufPool sync.Pool // *[]byte chunk/edit payload buffers, reused across frames

	trace uint64 // trace ID minted at the hello, shared with the host

	nextID  atomic.Uint32
	mu      sync.Mutex               // guards pending and doneErr
	pending map[uint32]chan dispatch // each request's or stream's dispatch slot

	done    chan struct{} // closed when the read loop exits
	doneErr error         // why (valid after done)

	served chan struct{} // in-process sessions: closed when the serving side ends
}

// dispatch is one frame handed from the read loop to its request or
// stream. Chunk and edit payloads are copied into a pooled buffer
// (buf), because the frame reader's decode buffer is overwritten by the
// next read; the consumer returns buf to the conn's pool when it picks
// up the stream's next frame, so a transfer of any length cycles
// through at most window+1 buffers instead of allocating per frame.
type dispatch struct {
	f   frame
	buf *[]byte
}

// Dial connects to a peer host, performs the hello exchange, and
// returns the session. The configured digest must match the host's.
func Dial(addr string, cfg Config) (*Conn, error) {
	win, err := dialWindow(cfg.Window)
	if err != nil {
		return nil, err
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return handshake(nc, cfg, win)
}

// dialWindow resolves the credit window a client grants in its hello:
// zero means DefaultWindow, negative is refused, oversized is clamped.
func dialWindow(w int) (int, error) {
	if w < 0 {
		return 0, fmt.Errorf("transport: dial: %w", ErrInvalidWindow)
	}
	if w == 0 {
		w = DefaultWindow
	}
	return clampWindow(w, 0), nil
}

// handshake runs the hello exchange over an established connection —
// a TCP socket or one end of an in-memory pipe — and starts the
// session's read loop. It closes nc on failure.
func handshake(nc net.Conn, cfg Config, win int) (_ *Conn, err error) {
	defer func() {
		if err != nil {
			nc.Close()
		}
	}()
	c := &Conn{
		endpoint: endpoint{c: nc, fw: frameWriter{w: nc},
			timeout: resolveLiveness(cfg.Timeout, DefaultTimeout), obs: cfg.Obs},
		heartbeat: resolveLiveness(cfg.Heartbeat, DefaultHeartbeat),
		window:    win,
		pending:   map[uint32]chan dispatch{},
		done:      make(chan struct{}),
		trace:     obs.NewTraceID(),
	}
	c.fw.tap, c.fw.sess = cfg.Tap, c.trace
	c.bufPool.New = func() any { return new([]byte) }
	helloStart := spanClock(cfg.Obs)
	if err := c.send(frame{
		typ:  frameHello,
		flag: protocolVersion,
		id:   wireChunk(cfg.Chunk),
		win:  uint32(win),
		ver:  c.trace,
		data: cfg.Digest,
	}); err != nil {
		return nil, fmt.Errorf("transport: hello: %w", err)
	}
	fr := newFrameReader(nc)
	fr.obs = cfg.Obs
	fr.tap, fr.sess = cfg.Tap, c.trace
	c.armReadDeadline()
	f, err := fr.read()
	if err != nil {
		if isTimeout(err) {
			return nil, &TimeoutError{Op: "hello", After: c.timeout}
		}
		return nil, fmt.Errorf("transport: hello: %w", err)
	}
	switch f.typ {
	case frameWelcome:
		if f.flag != protocolVersion {
			return nil, fmt.Errorf("transport: protocol version mismatch: host speaks v%d, this client v%d", f.flag, protocolVersion)
		}
		if !bytes.Equal(f.data, cfg.Digest) {
			return nil, fmt.Errorf("transport: design digest mismatch (the host serves a different design)")
		}
	case frameRefuse:
		// A typed refusal: the host named its cause on the wire, so the
		// error unwraps to ErrUnknownDesign or ErrOverCapacity and the
		// caller can tell "not registered here" from "back off and
		// retry".
		return nil, &RefusedError{Code: RefuseCode(f.flag), Reason: f.str}
	case frameError:
		return nil, fmt.Errorf("transport: host refused session: %s", f.str)
	default:
		return nil, fmt.Errorf("transport: unexpected hello response (frame type %d)", f.typ)
	}
	c.obs.Span(obs.Span{Trace: c.trace, Name: "hello", Start: helloStart, End: spanClock(cfg.Obs)})
	go c.readLoop(fr)
	if c.heartbeat > 0 {
		go c.heartbeatLoop()
	}
	return c, nil
}

// spanClock returns the wall-clock span timestamp, or 0 when no trace
// sink is attached: span boundaries are the only place the transport
// consults the wall clock, and only when someone is listening. Spans
// use wall-clock Unix nanos (not the collector's monotonic epoch) so
// the two processes' JSONL streams stitch onto one timeline.
func spanClock(c *obs.Collector) int64 {
	if c.Trace() == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// heartbeatLoop keeps an idle session visibly alive: after a heartbeat
// interval with no frame written, it sends a ping. The host answers
// with a pong, so both ends see traffic within one heartbeat whenever
// the path is healthy — the read deadlines then only ever fire on a
// genuinely dead peer.
func (c *Conn) heartbeatLoop() {
	t := time.NewTicker(c.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if time.Since(time.Unix(0, c.lastWrite.Load())) < c.heartbeat {
				continue // the session is writing on its own; no probe needed
			}
			if c.send(frame{typ: framePing, id: c.pingID.Add(1)}) != nil {
				return // the read loop surfaces the session failure
			}
		case <-c.done:
			return
		}
	}
}

// readLoop dispatches incoming frames to their waiting request or
// stream; frames for aborted or finished streams are dropped.
func (c *Conn) readLoop(fr *frameReader) {
	var err error
	for {
		var f frame
		c.armReadDeadline()
		f, err = fr.read()
		if err != nil {
			if isTimeout(err) {
				err = &TimeoutError{Op: "read", After: c.timeout}
			}
			break
		}
		if f.typ == frameError {
			err = fmt.Errorf("transport: host error: %s", f.str)
			break
		}
		// Liveness frames are handled before stream dispatch: their token
		// ids share nothing with stream ids and must not be routed.
		if f.typ == framePing {
			if c.send(frame{typ: framePong, id: f.id}) != nil {
				continue // the write path's failure surfaces on the next read
			}
			continue
		}
		if f.typ == framePong {
			continue // the arrival itself refreshed the read deadline
		}
		c.mu.Lock()
		w := c.pending[f.id]
		c.mu.Unlock()
		if w == nil {
			continue // late response for an aborted stream: drop
		}
		d := dispatch{f: f}
		if f.typ == frameChunk || f.typ == frameEdit {
			// The frame reader's decode buffer is overwritten by the
			// next read, so the payload is copied out — into a pooled
			// buffer the consumer returns when it picks up the stream's
			// next frame, keeping the hot path allocation-steady at any
			// window size.
			bp := c.bufPool.Get().(*[]byte)
			*bp = append((*bp)[:0], f.data...)
			d.f.data, d.buf = *bp, bp
		}
		select {
		case w <- d:
		default:
			// A conforming host never has more frames in flight per
			// stream than the dispatch buffer holds (the credit window
			// bounds unacked chunks); overflow means the protocol is
			// broken, and dropping or blocking would hang the session in
			// harder-to-debug ways.
			err = fmt.Errorf("transport: host overran stream %d", f.id)
		}
		if err != nil {
			break
		}
	}
	if err == io.EOF {
		err = fmt.Errorf("transport: session closed by host")
	}
	c.mu.Lock()
	c.doneErr = err
	c.mu.Unlock()
	close(c.done)
}

// register allocates an id and its dispatch slot with the given
// capacity. Verdict requests use a small fixed slot; streams size
// theirs to the credit window (window unacked chunks can be in flight
// at once, plus the begin/end/error envelope and a trailing edit).
func (c *Conn) register(slots int) (uint32, chan dispatch) {
	id := c.nextID.Add(1)
	w := make(chan dispatch, slots)
	c.mu.Lock()
	c.pending[id] = w
	c.mu.Unlock()
	return id, w
}

func (c *Conn) unregister(id uint32) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// send writes one frame, stamping the write for the heartbeat.
func (c *Conn) send(f frame) error {
	if c.heartbeat > 0 {
		c.lastWrite.Store(time.Now().UnixNano())
	}
	return c.endpoint.send(f)
}

// TraceID returns the session's trace ID: minted by the dialing side,
// carried in the hello, and tagged onto every telemetry span both
// processes emit for this session.
func (c *Conn) TraceID() uint64 { return c.trace }

// sessionErr reports why the session died.
func (c *Conn) sessionErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.doneErr != nil {
		return c.doneErr
	}
	return fmt.Errorf("transport: session closed")
}

// Verdict asks the host to validate fn's document against its local
// type and waits for the answer.
func (c *Conn) Verdict(ctx context.Context, fn string) (bool, error) {
	id, w := c.register(4)
	defer c.unregister(id)
	start := spanClock(c.obs)
	if err := c.send(frame{typ: frameVerdictReq, id: id, str: fn}); err != nil {
		return false, err
	}
	select {
	case d := <-w:
		f := d.f
		switch f.typ {
		case frameVerdict:
			c.obs.Span(obs.Span{Trace: c.trace, Name: "verdict", Frag: fn, Start: start, End: spanClock(c.obs)})
			return f.flag != 0, nil
		case frameStreamErr:
			return false, fmt.Errorf("transport: verdict %s: %s", fn, f.str)
		default:
			return false, fmt.Errorf("transport: unexpected frame type %d for verdict request", f.typ)
		}
	case <-ctx.Done():
		// Withdraw the request so the host stops validating
		// mid-document: a short-circuited round costs the peers no
		// more work than it has already done.
		c.send(frame{typ: frameVerdictCancel, id: id})
		return false, ctx.Err()
	case <-c.done:
		return false, c.sessionErr()
	}
}

// Open requests fn's fragment stream and waits for the host to announce
// it (a Begin frame carrying the total size).
func (c *Conn) Open(ctx context.Context, fn string) (Fragment, error) {
	start := spanClock(c.obs)
	id, w, f, err := c.openStream(ctx, "open", frame{typ: frameOpen, str: fn}, frameBegin)
	if err != nil {
		return nil, err
	}
	c.obs.Span(obs.Span{Trace: c.trace, Name: "open", Frag: fn, Start: start, End: spanClock(c.obs), Bytes: int64(f.size)})
	return &connFragment{chunkStream: chunkStream{conn: c, id: id, w: w, what: "stream"}, fn: fn, size: int(f.size), opened: spanClock(c.obs)}, nil
}

// Subscribe opens a live subscription on fn's edit log and waits for
// the host to announce the snapshot cut.
func (c *Conn) Subscribe(ctx context.Context, fn string) (EditFeed, error) {
	return c.subscribe(ctx, frame{typ: frameSubscribe, str: fn})
}

// Resubscribe reopens a live subscription after a disconnect: `after`
// is the last edit version this peer applied. When the host's log still
// covers the suffix, the returned feed is Resumed() — no snapshot, the
// first edit carries after+1. Otherwise the host falls back to a fresh
// full snapshot cut (the log was compacted past `after`) and the feed
// behaves exactly like a new subscription.
func (c *Conn) Resubscribe(ctx context.Context, fn string, after uint64) (EditFeed, error) {
	return c.subscribe(ctx, frame{typ: frameResume, ver: after, str: fn})
}

func (c *Conn) subscribe(ctx context.Context, req frame) (EditFeed, error) {
	id, w, f, err := c.openStream(ctx, "subscribe", req, frameSubscribed)
	if err != nil {
		return nil, err
	}
	return &connEditFeed{chunkStream: chunkStream{conn: c, id: id, w: w, what: "subscription"}, base: f.ver, size: int(f.size), resumed: f.flag != 0}, nil
}

// openStream is the handshake shared by fragment streams and
// subscriptions: register a stream id, send the request, and wait for
// the host's announcement (want) — or its typed refusal. The
// announcement echoes the effective window the host will honor; a
// conforming host never raises the hello grant.
func (c *Conn) openStream(ctx context.Context, op string, req frame, want frameType) (uint32, chan dispatch, frame, error) {
	// Dispatch capacity: up to window unacked chunks, plus
	// Begin/End/StreamErr and an edit interleaving at a phase boundary.
	id, w := c.register(c.window + 4)
	req.id = id
	fn := req.str
	fail := func(err error) (uint32, chan dispatch, frame, error) {
		c.unregister(id)
		return 0, nil, frame{}, err
	}
	if err := c.send(req); err != nil {
		return fail(err)
	}
	select {
	case d := <-w:
		f := d.f
		switch f.typ {
		case want:
			if f.win < 1 || int(f.win) > c.window {
				c.send(frame{typ: frameReject, id: id, str: "bad window echo"})
				return fail(fmt.Errorf("transport: %s %s: host announced window %d outside granted [1,%d]", op, fn, f.win, c.window))
			}
			return id, w, f, nil
		case frameStreamErr:
			// A refusal code makes the cause typed, as a refused hello is.
			cause := errors.New(f.str)
			if f.flag != byte(RefuseGeneric) {
				cause = &RefusedError{Code: RefuseCode(f.flag), Reason: f.str}
			}
			return fail(fmt.Errorf("transport: %s %s: %w", op, fn, cause))
		default:
			return fail(fmt.Errorf("transport: %s %s: unexpected frame type %d", op, fn, f.typ))
		}
	case <-ctx.Done():
		// Halt the stream the caller no longer wants; the host's sender
		// would otherwise park on its first ack.
		c.send(frame{typ: frameReject, id: id, str: op + " canceled"})
		return fail(ctx.Err())
	case <-c.done:
		return fail(c.sessionErr())
	}
}

// chunkStream is the receiving end of one credit-windowed chunk flow:
// a fragment transfer, or a subscription's snapshot phase.
type chunkStream struct {
	conn      *Conn
	id        uint32
	w         chan dispatch
	what      string  // "stream" or "subscription", for errors
	closed    bool    // aborted or unsubscribed by the receiver
	received  uint64  // chunks picked up so far
	lastAcked uint64  // cumulative count in the last ack sent
	prev      *[]byte // pooled buffer behind the last returned chunk or edit
}

// next acknowledges every chunk consumed so far — a cumulative count
// that replenishes the sender's credits, so a duplicate is idempotent
// — and waits for the stream's next frame; a stream error frame ends
// the stream with an error. A chunk or edit payload is valid until the
// following call. Acking on the *next* call, not on
// receipt, is what keeps rejection prompt: a receiver that rejects
// after chunk k has never acked it, so the sender holds at most
// window-1 further chunks of credit and serializes nothing past that.
// With a window of 1 this is exactly the stop-and-wait wire.
func (s *chunkStream) next(ctx context.Context) (frame, error) {
	if s.closed {
		return frame{}, fmt.Errorf("transport: read from closed %s", s.what)
	}
	if s.prev != nil {
		s.conn.bufPool.Put(s.prev)
		s.prev = nil
	}
	if s.received > s.lastAcked {
		s.lastAcked = s.received
		if err := s.conn.send(frame{typ: frameAck, id: s.id, ver: s.lastAcked}); err != nil {
			return frame{}, err
		}
	}
	select {
	case d := <-s.w:
		switch d.f.typ {
		case frameChunk:
			s.received++
		case frameStreamErr:
			s.conn.unregister(s.id)
			return frame{}, fmt.Errorf("transport: %s failed: %s", s.what, d.f.str)
		}
		s.prev = d.buf
		return d.f, nil
	case <-ctx.Done():
		return frame{}, ctx.Err()
	case <-s.conn.done:
		return frame{}, s.conn.sessionErr()
	}
}

// connEditFeed is the receiver side of one subscription: snapshot
// chunks first (credit-windowed and cumulatively acked like a fragment
// transfer), then edits (stop-and-wait, acked with their version).
type connEditFeed struct {
	chunkStream
	base    uint64
	size    int
	resumed bool

	owesEditAck bool
	lastVer     uint64
}

func (f *connEditFeed) Base() uint64      { return f.base }
func (f *connEditFeed) SnapshotSize() int { return f.size }
func (f *connEditFeed) Resumed() bool     { return f.resumed }

func (f *connEditFeed) NextChunk() ([]byte, error) {
	fr, err := f.next(context.Background())
	if err != nil {
		return nil, err
	}
	switch fr.typ {
	case frameChunk:
		return fr.data, nil
	case frameEnd:
		// Snapshot complete; the stream stays registered for edits.
		return nil, io.EOF
	}
	return nil, fmt.Errorf("transport: unexpected frame type %d in snapshot", fr.typ)
}

func (f *connEditFeed) NextEdit(ctx context.Context) (EditFrame, error) {
	if f.owesEditAck && !f.closed {
		f.owesEditAck = false
		if err := f.conn.send(frame{typ: frameEditAck, id: f.id, ver: f.lastVer}); err != nil {
			return EditFrame{}, err
		}
	}
	fr, err := f.next(ctx)
	if err != nil {
		return EditFrame{}, err
	}
	if fr.typ != frameEdit {
		return EditFrame{}, fmt.Errorf("transport: unexpected frame type %d in edit stream", fr.typ)
	}
	f.owesEditAck = true
	f.lastVer = fr.ver
	return EditFrame{Version: fr.ver, Op: fr.flag, Addr: fr.addr, Doc: fr.data}, nil
}

func (f *connEditFeed) SendVerdict(version uint64, valid bool) error {
	v := byte(0)
	if valid {
		v = 1
	}
	return f.conn.send(frame{typ: frameVerdictUpdate, id: f.id, ver: version, flag: v})
}

// Close unsubscribes: the reject frame halts the host's edit sender.
func (f *connEditFeed) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	f.conn.unregister(f.id)
	return f.conn.send(frame{typ: frameReject, id: f.id, str: "unsubscribed"})
}

// Close tears the session down; in-flight operations fail. An
// in-process session's Close also waits for its serving side, so the
// host's slots are released when it returns.
func (c *Conn) Close() error {
	err := c.c.Close()
	<-c.done // wait for the read loop so no dispatch races the caller
	if c.served != nil {
		<-c.served
	}
	return err
}

// connFragment is the receiver side of one fragment stream.
type connFragment struct {
	chunkStream
	fn     string
	size   int
	opened int64 // spanClock at open, for the chunks span
	bytes  int64 // payload bytes received so far
}

func (f *connFragment) Size() int { return f.size }

// Next acknowledges every chunk consumed so far and waits for the next
// one (see chunkStream.next).
func (f *connFragment) Next() ([]byte, error) {
	fr, err := f.next(context.Background())
	if err != nil {
		return nil, err
	}
	switch fr.typ {
	case frameChunk:
		f.bytes += int64(len(fr.data))
		return fr.data, nil
	case frameEnd:
		f.conn.unregister(f.id)
		f.span("")
		return nil, io.EOF
	}
	return nil, fmt.Errorf("transport: unexpected frame type %d mid-stream", fr.typ)
}

// span records the transfer's chunks span.
func (f *connFragment) span(err string) {
	f.conn.obs.Span(obs.Span{
		Trace: f.conn.trace, Name: "chunks", Frag: f.fn,
		Start: f.opened, End: spanClock(f.conn.obs),
		Bytes: f.bytes, N: int64(f.received), Err: err,
	})
}

// DuplicateAck re-sends the last cumulative ack, verbatim. It exists
// for fault injection: a duplicated ack must never grant the sender
// extra credit, and re-sending the same cumulative count is the exact
// wire event a retransmitting network would produce.
func (f *connFragment) DuplicateAck() error {
	if f.closed {
		return fmt.Errorf("transport: ack on closed stream")
	}
	return f.conn.send(frame{typ: frameAck, id: f.id, ver: f.lastAcked})
}

// Abort rejects the transfer: the reject frame halts the sender, and
// the stream's remaining frames (at most an in-flight End) are dropped.
func (f *connFragment) Abort() {
	if f.closed {
		return
	}
	f.closed = true
	f.conn.unregister(f.id)
	f.span("aborted")
	f.conn.send(frame{typ: frameReject, id: f.id, str: "rejected by receiver"})
}
