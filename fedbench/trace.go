package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dxml/internal/obs"
	"dxml/internal/transport"
)

// The traced run times each layer from outside: it wraps the seams the
// harness itself hands to the program — the docking-point sources a
// host.Design.Build returns, the Build function, and the session set
// as p2p.Network.Transport — and records one span per call crossing
// them. A nil *tracer is the untraced run: every wrap returns its
// argument unchanged, so the untraced federation runs exactly the
// program's own code.

// Span names, one per layer boundary.
const (
	spanOp          = "op"                   // one timed operation (closed loops)
	spanSerialize   = "xmltree.serialize"    // host: Source.Serialize
	spanSend        = "transport.send"       // host: a chunk writer Write that ships a chunk
	spanPeerVerdict = "stream.peer_validate" // host: Source.Verdict
	spanMaterialize = "host.materialize"     // host: Design.Build
	spanOpen        = "transport.open"       // kernel: Session.Open
	spanRecvWait    = "transport.recv_wait"  // kernel: blocked in Fragment.Next
	spanConsume     = "stream.consume"       // kernel: between Fragment.Next returns
	spanVerdict     = "transport.verdict"    // kernel: Session.Verdict
	spanDial        = "host.dial"            // kernel: transport.Dial (via Network.DialTCP)
)

// span is one recorded interval; times are nanoseconds since the
// tracer's epoch. op is the operation the span belongs to (-1: set-up
// or not yet attributed), parent the id of the enclosing span (0:
// none), key the docking point it concerns, n a byte or item count.
type span struct {
	id, parent int64
	name       string
	op         int64
	key        string
	start, end int64
	n          int64
}

func (s span) dur() int64 { return s.end - s.start }

// traceEvery samples the closed loops' operations: every traceEvery-th
// operation is traced in full, the others run with the wrappers
// passing straight through. A central-bulk operation records some 600
// spans; sampling keeps the span log to a few hundred thousand spans
// per run and the tracing overhead low.
const traceEvery = 4

// unsampled marks a closed-loop operation that is not traced.
const unsampled = -2

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	col   *obs.Collector // attached to the host and the kernel peer

	ids   atomic.Int64
	curOp atomic.Int64 // op id of the closed loop's running operation
	curID atomic.Int64 // span id of that operation

	// editRecv is the time the kernel peer's wrapped EditFeed.NextEdit
	// last returned, and editVer that edit's version (live-edits).
	editRecv atomic.Int64
	editVer  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), col: obs.New()}
	t.curOp.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// collector is the obs sink for the federation: the tracer's in the
// traced run, nil (the program's no-op sink) otherwise.
func (t *tracer) collector() *obs.Collector {
	if t == nil {
		return nil
	}
	return t.col
}

// beginOp marks the start of closed-loop operation k; spans recorded on
// any goroutine until endOp are attributed to it. Operations outside
// the sample record nothing.
func (t *tracer) beginOp(k int) (id, start int64) {
	if t == nil {
		return 0, 0
	}
	if k%traceEvery != 0 {
		t.curOp.Store(unsampled)
		return 0, 0
	}
	id = t.newID()
	t.curID.Store(id)
	t.curOp.Store(int64(k))
	return id, t.now()
}

func (t *tracer) endOp(k int, id, start int64) {
	if t == nil {
		return
	}
	if id == 0 {
		t.curOp.Store(-1)
		return
	}
	t.record(span{id: id, name: spanOp, op: int64(k), start: start, end: t.now()})
	t.curOp.Store(-1)
	t.curID.Store(0)
}

// timed records one span around f under the running operation.
func (t *tracer) timed(name, key string, f func()) {
	if t == nil {
		f()
		return
	}
	op, parent := t.curOp.Load(), t.curID.Load()
	if op == unsampled {
		f()
		return
	}
	start := t.now()
	f()
	t.record(span{id: t.newID(), parent: parent, name: name, op: op, key: key, start: start, end: t.now()})
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the spans as tab-separated lines, one per span:
// id, parent, op, name, key, start_ns, end_ns, n.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tkey\tstart_ns\tend_ns\tn")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.op, s.name, s.key, s.start, s.end, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the summed self time of its spans
// attributed to an operation: each span's duration minus the part its
// child spans cover (children of one span never overlap: they are
// sequential calls on the span's own goroutine).
func selfTimes(spans []span) map[string]int64 {
	child := map[int64]int64{}
	for _, s := range spans {
		if s.parent != 0 {
			child[s.parent] += s.dur()
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		if s.op >= 0 {
			out[s.name] += s.dur() - child[s.id]
		}
	}
	return out
}

// --- host side: Design.Build and the sources it returns ---

// wrapBuild times the design's Build and wraps every source it returns.
func (t *tracer) wrapBuild(build func() (map[string]transport.Source, int64, error)) func() (map[string]transport.Source, int64, error) {
	if t == nil {
		return build
	}
	return func() (map[string]transport.Source, int64, error) {
		var (
			srcs     map[string]transport.Source
			resident int64
			err      error
		)
		t.timed(spanMaterialize, "", func() { srcs, resident, err = build() })
		if err != nil {
			return nil, 0, err
		}
		wrapped := make(map[string]transport.Source, len(srcs))
		for fn, s := range srcs {
			wrapped[fn] = t.wrapSource(fn, s)
		}
		return wrapped, resident, nil
	}
}

// wrapSource wraps a source, forwarding the optional live interfaces it
// implements.
func (t *tracer) wrapSource(fn string, s transport.Source) transport.Source {
	base := &tracedSource{t: t, fn: fn, inner: s}
	rs, resumable := s.(transport.ResumableSource)
	ls, live := s.(transport.LiveSource)
	switch {
	case resumable:
		return &tracedResumableSource{tracedLiveSource{base, rs}, rs}
	case live:
		return &tracedLiveSource{base, ls}
	}
	return base
}

type tracedSource struct {
	t     *tracer
	fn    string
	inner transport.Source
}

func (s *tracedSource) Size() int { return s.inner.Size() }

func (s *tracedSource) Verdict(ctx context.Context) bool {
	var v bool
	s.t.timed(spanPeerVerdict, s.fn, func() { v = s.inner.Verdict(ctx) })
	return v
}

// Serialize records the serialization span; its sendWriter records the
// chunk-shipping writes inside it as child spans.
func (s *tracedSource) Serialize(w io.Writer) error {
	t := s.t
	op, parent := t.curOp.Load(), t.curID.Load()
	if op == unsampled {
		return s.inner.Serialize(w)
	}
	id := t.newID()
	sw := &sendWriter{t: t, w: w, op: op, parent: id, fn: s.fn}
	start := t.now()
	err := s.inner.Serialize(sw)
	t.record(span{id: id, parent: parent, name: spanSerialize, op: op, key: s.fn, start: start, end: t.now(), n: sw.pos})
	return err
}

type tracedLiveSource struct {
	*tracedSource
	live transport.LiveSource
}

func (s *tracedLiveSource) OpenLive(ctx context.Context) (transport.LiveFeedSrc, error) {
	return s.live.OpenLive(ctx)
}

type tracedResumableSource struct {
	tracedLiveSource
	resumable transport.ResumableSource
}

func (s *tracedResumableSource) OpenLiveSince(ctx context.Context, after uint64) (transport.LiveFeedSrc, bool, error) {
	return s.resumable.OpenLiveSince(ctx, after)
}

// sendWriter wraps the transport's chunk writer. The writer buffers
// bytes into budget-sized chunks and ships a full chunk (frame encode,
// credit wait, socket write) at the start of the Write that brings the
// next byte; only those Writes are timed, so the clock is read a few
// hundred times per fragment instead of once per serialized line. The
// byte positions predict which Writes ship; the completeness check
// compares the number of timed Writes with the chunk count the wire
// accounts, so a change to the chunking shows up as a failed check.
type sendWriter struct {
	t      *tracer
	w      io.Writer
	op     int64
	parent int64
	fn     string
	pos    int64
}

func (s *sendWriter) Write(p []byte) (int, error) {
	const b = p2pChunk
	next := (s.pos + b - 1) / b * b // first chunk boundary at or after pos
	if next == 0 {
		next = b
	}
	ships := next < s.pos+int64(len(p))
	s.pos += int64(len(p))
	if !ships {
		return s.w.Write(p)
	}
	start := s.t.now()
	n, err := s.w.Write(p)
	s.t.record(span{id: s.t.newID(), parent: s.parent, name: spanSend, op: s.op, key: s.fn, start: start, end: s.t.now()})
	return n, err
}

// --- kernel side: the session set as Network.Transport ---

// wrapSession wraps a dialed session for operation op (-1: use the
// closed loop's running operation), forwarding the optional live
// interfaces it implements. A session for an operation outside the
// sample is not wrapped.
func (t *tracer) wrapSession(s transport.Session, op int64) transport.Session {
	if t == nil || (op >= 0 && op%traceEvery != 0) {
		return s
	}
	base := &tracedSession{t: t, inner: s, op: op}
	rs, resumable := s.(transport.ResumableSession)
	ls, live := s.(transport.LiveSession)
	switch {
	case resumable:
		return &tracedResumableSession{tracedLiveSession{base, rs}, rs}
	case live:
		return &tracedLiveSession{base, ls}
	}
	return base
}

type tracedSession struct {
	t     *tracer
	inner transport.Session
	op    int64
}

func (s *tracedSession) opID() (op, parent int64) {
	if s.op >= 0 {
		return s.op, 0
	}
	return s.t.curOp.Load(), s.t.curID.Load()
}

func (s *tracedSession) Verdict(ctx context.Context, fn string) (bool, error) {
	op, parent := s.opID()
	if op == unsampled {
		return s.inner.Verdict(ctx, fn)
	}
	start := s.t.now()
	v, err := s.inner.Verdict(ctx, fn)
	if err == nil {
		s.t.record(span{id: s.t.newID(), parent: parent, name: spanVerdict, op: op, key: fn, start: start, end: s.t.now()})
	}
	return v, err
}

func (s *tracedSession) Open(ctx context.Context, fn string) (transport.Fragment, error) {
	op, parent := s.opID()
	if op == unsampled {
		return s.inner.Open(ctx, fn)
	}
	start := s.t.now()
	f, err := s.inner.Open(ctx, fn)
	s.t.record(span{id: s.t.newID(), parent: parent, name: spanOpen, op: op, key: fn, start: start, end: s.t.now()})
	if err != nil {
		return nil, err
	}
	return &tracedFragment{t: s.t, inner: f, op: op, parent: parent, fn: fn}, nil
}

func (s *tracedSession) Close() error { return s.inner.Close() }

type tracedLiveSession struct {
	*tracedSession
	live transport.LiveSession
}

func (s *tracedLiveSession) Subscribe(ctx context.Context, fn string) (transport.EditFeed, error) {
	f, err := s.live.Subscribe(ctx, fn)
	if err != nil {
		return nil, err
	}
	return &tracedFeed{t: s.t, EditFeed: f}, nil
}

type tracedResumableSession struct {
	tracedLiveSession
	resumable transport.ResumableSession
}

func (s *tracedResumableSession) Resubscribe(ctx context.Context, fn string, after uint64) (transport.EditFeed, error) {
	f, err := s.resumable.Resubscribe(ctx, fn, after)
	if err != nil {
		return nil, err
	}
	return &tracedFeed{t: s.t, EditFeed: f}, nil
}

// tracedFragment splits the kernel peer's time on one transfer into
// waiting inside Next (transport.recv_wait) and working between one
// Next's return and the following call (stream.consume: splice, feed,
// automaton step).
type tracedFragment struct {
	t       *tracer
	inner   transport.Fragment
	op      int64
	parent  int64
	fn      string
	lastRet int64
}

func (f *tracedFragment) Size() int { return f.inner.Size() }

func (f *tracedFragment) Next() ([]byte, error) {
	t := f.t
	start := t.now()
	if f.lastRet != 0 {
		t.record(span{id: t.newID(), parent: f.parent, name: spanConsume, op: f.op, key: f.fn, start: f.lastRet, end: start})
	}
	chunk, err := f.inner.Next()
	end := t.now()
	t.record(span{id: t.newID(), parent: f.parent, name: spanRecvWait, op: f.op, key: f.fn, start: start, end: end, n: int64(len(chunk))})
	f.lastRet = 0
	if err == nil {
		f.lastRet = end
	}
	return chunk, err
}

func (f *tracedFragment) Abort() { f.inner.Abort() }

// tracedFeed stamps the return of every NextEdit: the moment an edit
// reaches the kernel peer.
type tracedFeed struct {
	t *tracer
	transport.EditFeed
}

func (f *tracedFeed) NextEdit(ctx context.Context) (transport.EditFrame, error) {
	e, err := f.EditFeed.NextEdit(ctx)
	if err == nil {
		f.t.editRecv.Store(f.t.now())
		f.t.editVer.Store(e.Version)
	}
	return e, err
}

// pairVerdicts attributes host-side peer validations to the kernel
// peer's verdict requests: a host span pairs with the request on the
// same docking point whose interval contains it. Docking-point names
// are unique per design, so with at most nproc concurrent requests the
// pairing is exact unless two sessions of one tenant overlap — then
// either containing request is a faithful match. Only requests of
// timed operations take part. It returns the request round trip minus
// the host's validation time, per pair, and sets each paired host
// span's op.
func pairVerdicts(spans []span) []int64 {
	host := map[string][]int{}
	var reqs []int
	for i, s := range spans {
		switch s.name {
		case spanPeerVerdict:
			host[s.key] = append(host[s.key], i)
		case spanVerdict:
			if s.op >= 0 {
				reqs = append(reqs, i)
			}
		}
	}
	for _, idx := range host {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
	}
	used := map[int]bool{}
	var rtt []int64
	for _, ri := range reqs {
		r := spans[ri]
		for _, hi := range host[r.key] {
			h := spans[hi]
			if h.start > r.end {
				break
			}
			if used[hi] || h.start < r.start || h.end > r.end {
				continue
			}
			used[hi] = true
			spans[hi].op = r.op
			rtt = append(rtt, r.dur()-h.dur())
			break
		}
	}
	return rtt
}
