package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dxml/internal/axml"
	"dxml/internal/host"
	"dxml/internal/live"
	"dxml/internal/obs"
	"dxml/internal/p2p"
	"dxml/internal/transport"
	"dxml/internal/xmltree"
)

// hostRig is one running host: the registry behind a host.Server on a
// loopback port.
type hostRig struct {
	reg *host.Registry
	srv *host.Server
}

func startHost(cfg host.Config, designs []host.Design) (*hostRig, error) {
	reg := host.NewRegistry(cfg)
	for _, d := range designs {
		if err := reg.Register(d); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &hostRig{reg: reg, srv: host.NewServer(reg, ln, nil)}, nil
}

func (h *hostRig) addr() string { return h.srv.Addr().String() }

func (h *hostRig) close() { h.srv.Close() }

// setupCost accumulates the parts of one set-up the per-layer metrics
// name. Builds after the set-up (re-materializations) keep adding to
// compile; setUp copies the figures when the set-up returns.
type setupCost struct {
	mu      sync.Mutex
	typing  time.Duration // design-problem solves
	compile time.Duration // stream.Compile of global and local types
}

// totals returns the typing and compile time accumulated so far.
func (c *setupCost) totals() (typing, compile time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.typing, c.compile
}

func (c *setupCost) add(field *time.Duration, d time.Duration) {
	c.mu.Lock()
	*field += d
	c.mu.Unlock()
}

// solve times a class's design problem into the set-up cost.
func (c *setupCost) solve(cl class) (types, error) {
	start := time.Now()
	ty, err := cl.solve()
	c.add(&c.typing, time.Since(start))
	return ty, err
}

// design is the host.Design of one federation: the served documents
// behind a p2p.Network whose peers' validators are compiled at build
// time, so a materialization (first hello, or the first after an
// eviction) pays for what a host must rebuild. onEditors, when set,
// attaches a live editor to every docking point and receives them.
func (c *setupCost) design(name string, kernel *axml.Kernel, ty types, docs []*xmltree.Tree,
	tr *tracer, onEditors func(map[string]*live.Editor)) host.Design {
	client := p2p.NewNetwork(kernel, ty.global)
	build := func() (map[string]transport.Source, int64, error) {
		n := p2p.NewNetwork(kernel, ty.global)
		n.Obs = tr.collector()
		editors := map[string]*live.Editor{}
		for i, fn := range kernel.Funcs() {
			if err := n.AddPeer(fn, docs[i], ty.typing[i]); err != nil {
				return nil, 0, err
			}
			start := time.Now()
			n.Peers[fn].Machine()
			c.add(&c.compile, time.Since(start))
			if onEditors != nil {
				ed, err := n.AttachEditor(fn)
				if err != nil {
					return nil, 0, err
				}
				editors[fn] = ed
			}
		}
		if onEditors != nil {
			onEditors(editors)
		}
		return n.HostSources(), n.ResidentEstimate(), nil
	}
	return host.Design{Name: name, Digest: client.Digest(), Build: tr.wrapBuild(build)}
}

// join is a kernel peer for a design: a p2p.Network over the kernel
// and global type, dialed to the host, with the (possibly traced)
// session as its transport. op is the operation the session belongs
// to, -1 for the closed loop's running one.
func join(addr string, kernel *axml.Kernel, ty types, tr *tracer, op int64) (*p2p.Network, transport.Session, error) {
	n := p2p.NewNetwork(kernel, ty.global)
	n.Obs = tr.collector()
	addrs := map[string]string{}
	for _, fn := range kernel.Funcs() {
		addrs[fn] = addr
	}
	var (
		sess transport.Session
		err  error
	)
	tr.timed(spanDial, "", func() { sess, err = n.DialTCP(addrs) })
	if err != nil {
		return nil, nil, fmt.Errorf("join: %w", err)
	}
	sess = tr.wrapSession(sess, op)
	n.Transport = sess
	return n, sess, nil
}

// federation is one set-up workload, ready to run operations.
type federation interface {
	// op runs operation k and checks its result against the expected
	// value fixed at generation; it returns the document bytes the
	// operation validated.
	op(k int) (int64, error)
	// wire returns the protocol payload bytes and frames the kernel
	// peer has accounted so far (p2p.Stats totals).
	wire() (bytes, frames int64)
	rig() *hostRig
	close()
}

// windows is how many equal windows a timed phase is cut into. The
// rate and per-operation metrics are medians over the windows, so a
// burst of load from outside the process that hits one or two of them
// does not move the result.
const windows = 6

// stats is what one stretch of a timed phase measured.
type stats struct {
	wall      time.Duration
	lat       []time.Duration // completed operations, in completion order
	validated int64           // document bytes validated
	cpu       time.Duration   // process user+sys
	alloc     uint64          // bytes allocated
	gcCPU     float64         // seconds of GC CPU
	gcCycles  uint64
	wireBytes int64
	frames    int64
}

func (s stats) ops() float64 { return float64(len(s.lat)) }

// phase is the measurement of one timed phase.
type phase struct {
	attempted int
	failed    int
	firstErr  error
	lag       []time.Duration // generator lateness
	total     stats
	windows   []stats
}

// probe is a snapshot of the process counters a window differences.
type probe struct {
	at       time.Time
	cpu      time.Duration
	alloc    uint64
	gcCPU    float64
	gcCycles uint64
	wire     int64
	frames   int64
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func takeProbe(f federation) probe {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcSamples)
	p := probe{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    ms.TotalAlloc,
		gcCPU:    gcSamples[0].Value.Float64(),
		gcCycles: gcSamples[1].Value.Uint64(),
	}
	p.wire, p.frames = f.wire()
	p.at = time.Now()
	return p
}

// between is the counters' difference from p0 to p1.
func between(p0, p1 probe) stats {
	return stats{
		wall:      p1.at.Sub(p0.at),
		cpu:       p1.cpu - p0.cpu,
		alloc:     p1.alloc - p0.alloc,
		gcCPU:     p1.gcCPU - p0.gcCPU,
		gcCycles:  p1.gcCycles - p0.gcCycles,
		wireBytes: p1.wire - p0.wire,
		frames:    p1.frames - p0.frames,
	}
}

// sample is one completed operation.
type sample struct {
	end   time.Time
	lat   time.Duration
	bytes int64
}

// recorder collects one worker's operations.
type recorder struct {
	attempted int
	failed    int
	firstErr  error
	lag       []time.Duration
	samples   []sample
}

func (r *recorder) record(k int, lag, lat time.Duration, end time.Time, n int64, err error) {
	r.attempted++
	r.lag = append(r.lag, lag)
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("op %d: %w", k, err)
		}
		return
	}
	r.samples = append(r.samples, sample{end: end, lat: lat, bytes: n})
}

// phase merges the workers' records and cuts them at the probes: an
// operation belongs to the window in which it completed.
func newPhase(probes []probe, rs ...*recorder) phase {
	var ph phase
	var all []sample
	for _, r := range rs {
		ph.attempted += r.attempted
		ph.failed += r.failed
		if ph.firstErr == nil {
			ph.firstErr = r.firstErr
		}
		ph.lag = append(ph.lag, r.lag...)
		all = append(all, r.samples...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end.Before(all[j].end) })
	ph.total = between(probes[0], probes[len(probes)-1])
	for i := 1; i < len(probes); i++ {
		ph.windows = append(ph.windows, between(probes[i-1], probes[i]))
	}
	for _, s := range all {
		w := sort.Search(len(probes)-1, func(i int) bool { return probes[i+1].at.After(s.end) })
		if w == len(probes)-1 {
			w-- // completed as the final probe was taken
		}
		for _, st := range []*stats{&ph.total, &ph.windows[w]} {
			st.lat = append(st.lat, s.lat)
			st.validated += s.bytes
		}
	}
	return ph
}

// closedLoop runs operations back to back on one client for d: each is
// due when the previous one completes, so lateness is the harness's own
// gap between them.
func closedLoop(f federation, d time.Duration, tr *tracer) phase {
	var r recorder
	probes := []probe{takeProbe(f)}
	start := probes[0].at
	step := d / windows
	prev := start
	for k := 0; prev.Before(start.Add(d)); k++ {
		began := time.Now()
		id, tstart := tr.beginOp(k)
		n, err := f.op(k)
		tr.endOp(k, id, tstart)
		end := time.Now()
		r.record(k, began.Sub(prev), end.Sub(began), end, n, err)
		prev = end
		for len(probes) < windows && !end.Before(start.Add(step*time.Duration(len(probes)))) {
			probes = append(probes, takeProbe(f))
		}
	}
	return newPhase(append(probes, takeProbe(f)), &r)
}

// openLoop issues operations on a fixed schedule, rate per second, for
// d, on at most workers concurrent clients. Latency counts from each
// operation's due time, so a stall also charges the operations queued
// behind it; lateness is how far past due an operation started. Each
// worker waits for its next due time on a waker, which starts it within
// tens of microseconds rather than the scheduler's millisecond.
func openLoop(f federation, d time.Duration, rate float64, workers int) phase {
	interval := time.Duration(float64(time.Second) / rate)
	total := int64(d / interval)
	var next atomic.Int64
	rs := make([]*recorder, workers)
	probes := []probe{takeProbe(f)}
	start := probes[0].at
	probed := make(chan struct{})
	go func() {
		defer close(probed)
		for i := 1; i < windows; i++ {
			time.Sleep(time.Until(start.Add(d / windows * time.Duration(i))))
			probes = append(probes, takeProbe(f))
		}
	}()
	var wg sync.WaitGroup
	for i := range rs {
		r := &recorder{}
		rs[i] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk, err := newWaker()
			if err != nil {
				r.record(-1, 0, 0, time.Now(), 0, err)
				return
			}
			defer wk.close()
			for {
				k := next.Add(1) - 1
				if k >= total {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				if err := wk.sleepUntil(due); err != nil {
					r.record(int(k), 0, 0, time.Now(), 0, err)
					continue
				}
				began := time.Now()
				n, err := f.op(int(k))
				end := time.Now()
				r.record(int(k), began.Sub(due), end.Sub(due), end, n, err)
			}
		}()
	}
	wg.Wait()
	<-probed
	return newPhase(append(probes, takeProbe(f)), rs...)
}

// perWindow is the median over the phase's windows of f.
func (ph phase) perWindow(f func(s stats) float64) float64 {
	var xs []float64
	for _, w := range ph.windows {
		if len(w.lat) > 0 {
			xs = append(xs, f(w))
		}
	}
	return quantile(xs, 0.5)
}

// tailBlock is the operation count the p99 is taken over: the p99 of
// each run of tailBlock consecutive operations leaves 10 samples beyond
// it.
const tailBlock = 1000

// p99 is the first quartile, over consecutive blocks of at least
// tailBlock completed operations, of each block's 99th-percentile
// latency, in ms. The program's own slow operations (rebuilds, flips,
// collections) recur all through a run, so they lift every block's p99
// alike; a stall of the machine lasts seconds and lifts only the blocks
// it falls in, and the quartile stays clear of it while it covers fewer
// than three in four blocks.
func (ph phase) p99() float64 {
	lat := ph.total.lat
	blocks := max(1, len(lat)/tailBlock)
	size := len(lat) / blocks
	var xs []float64
	for b := 0; b < blocks; b++ {
		xs = append(xs, quantile(millis(lat[b*size:(b+1)*size]), 0.99))
	}
	return quantile(xs, 0.25)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(math.Floor(pos))
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// heapMB forces a collection and returns the live heap in MB: what the
// running federation pins. The second collection empties the sync.Pool
// victim caches the first one leaves behind, so buffers the program
// merely pools do not count.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// obsHist returns the collector's histogram h as a delta against base.
func obsHist(c *obs.Collector, h obs.Hist, base obs.HistSnapshot) obs.HistSnapshot {
	s := c.Snapshot(h)
	s.Count -= base.Count
	s.Sum -= base.Sum
	for i := range s.Buckets {
		s.Buckets[i] -= base.Buckets[i]
	}
	return s
}

// histQuantile interpolates the q-quantile inside the power-of-two
// bucket it falls in (obs exports only the bucket's upper bound).
func histQuantile(s obs.HistSnapshot, q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if seen+float64(n) >= rank {
			lo := float64(0)
			if i > 0 {
				lo = float64(obs.BucketBound(i-1) + 1)
			}
			hi := float64(obs.BucketBound(i))
			return lo + (rank-seen)/float64(n)*(hi-lo)
		}
		seen += float64(n)
	}
	return float64(obs.BucketBound(len(s.Buckets) - 1))
}

func histMean(s obs.HistSnapshot) float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
