package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dxml/internal/obs"
	"dxml/internal/stream"
)

// traceSetups is how many traced set-ups a traced run makes: their
// dials, materializations, solves and compiles give the set-up layers
// several samples.
const traceSetups = 3

// microloopTime is how long each layer microloop runs.
const microloopTime = 400 * time.Millisecond

// coverageTol is the completeness check's tolerance: on central-bulk,
// the kernel peer's time opening transfers, blocked in Fragment.Next,
// and between Next returns must cover the operations' wall time to
// within this share (the rest is streaming the kernel's own events).
const coverageTol = 0.02

// tracedRun measures half of d untraced, then sets the federation up
// traced and measures the other half; it reports the per-layer metrics.
func tracedRun(w *workload, seed int64, d time.Duration) (*result, error) {
	var p *prepared
	var err error
	genTime := timeIt(func() { p, err = w.prepare(seed) })
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	f, _, _, err := setUp(p, nil, 1)
	if err != nil {
		return nil, err
	}
	ref := p.measure(f, d/2, nil)
	f.close()

	tr := newTracer()
	f, typing, compile, err := setUp(p, tr, traceSetups)
	if err != nil {
		return nil, err
	}
	defer f.close()
	hists := []obs.Hist{obs.HChunkRTTNs, obs.HWindowOccupancy, obs.HFrameEncodeNs, obs.HFrameDecodeNs}
	base := map[obs.Hist]obs.HistSnapshot{}
	for _, h := range hists {
		base[h] = tr.col.Snapshot(h)
	}
	reg0 := f.rig().reg.Metrics().Global
	w0 := tr.now()
	win := p.measure(f, d/2, tr)
	reg1 := f.rig().reg.Metrics().Global

	ops := win.total.ops()
	if ops == 0 || ref.total.ops() == 0 {
		return nil, fmt.Errorf("no operation completed: %v %v", ref.firstErr, win.firstErr)
	}
	spans := tr.snapshot()
	rtt := pairVerdicts(spans)
	self := selfTimes(spans)
	var dials, mats []time.Duration
	var peerNs int64
	var matsInWindow, traced int
	for _, s := range spans {
		switch s.name {
		case spanOp:
			traced++
		case spanDial:
			dials = append(dials, time.Duration(s.dur()))
		case spanMaterialize:
			mats = append(mats, time.Duration(s.dur()))
			if s.start >= w0 {
				matsInWindow++
			}
		case spanPeerVerdict:
			if s.start >= w0 {
				peerNs += s.dur()
			}
		}
	}
	// Closed loops trace a sample of their operations; the span-based
	// per-operation figures average over the traced ones.
	if traced == 0 {
		traced = len(win.total.lat)
	}
	perOp := func(ns int64) float64 { return float64(ns) / 1e6 / float64(traced) }
	us := func(ds []time.Duration) float64 { return quantile(millis(ds), 0.5) * 1e3 }
	rttDur := make([]time.Duration, len(rtt))
	for i, r := range rtt {
		rttDur[i] = time.Duration(r)
	}
	delta := func(h obs.Hist) obs.HistSnapshot { return obsHist(tr.col, h, base[h]) }
	cpuPerOp := func(ph phase) float64 { return float64(ph.total.cpu) / ph.total.ops() }

	m := map[string]metric{
		"xmltree.serialize_ms_per_op":     {perOp(self[spanSerialize]), "ms"},
		"transport.send_ms_per_op":        {perOp(self[spanSend]), "ms"},
		"transport.open_ms_per_op":        {perOp(self[spanOpen]), "ms"},
		"transport.recv_wait_ms_per_op":   {perOp(self[spanRecvWait]), "ms"},
		"transport.frames_per_op":         {float64(win.total.frames) / ops, "count"},
		"transport.verdict_rtt_us_p50":    {us(rttDur), "us"},
		"transport.ack_rtt_us_p50":        {histQuantile(delta(obs.HChunkRTTNs), 0.5) / 1e3, "us"},
		"transport.credit_occupancy_mean": {histMean(delta(obs.HWindowOccupancy)), "chunks"},
		"transport.encode_ns_per_frame":   {histMean(delta(obs.HFrameEncodeNs)), "ns"},
		"transport.decode_ns_per_frame":   {histMean(delta(obs.HFrameDecodeNs)), "ns"},
		"stream.consume_ms_per_op":        {perOp(self[spanConsume]), "ms"},
		"stream.peer_validate_ms_per_op":  {float64(peerNs) / 1e6 / ops, "ms"},
		"host.dial_ms_p50":                {median(dials), "ms"},
		"host.admission_us_p50":           {histQuantile(tr.col.Snapshot(obs.HAdmissionNs), 0.5) / 1e3, "us"},
		"host.materialize_ms_p50":         {median(mats), "ms"},
		"host.materializations_per_op":    {float64(matsInWindow) / ops, "count"},
		"host.evictions_per_op":           {float64(reg1.Evictions-reg0.Evictions) / ops, "count"},
		"host.refusals_per_op":            {float64(reg1.Rejections-reg0.Rejections) / ops, "count"},
		"core.typing_ms":                  {median(typing), "ms"},
		"stream.compile_ms":               {median(compile), "ms"},
		"runtime.gc_cpu_ms_per_op":        {win.total.gcCPU * 1e3 / ops, "ms"},
		"runtime.gc_cycles_per_op":        {float64(win.total.gcCycles) / ops, "count"},
		"harness.lag_p99_ms":              {quantile(millis(win.lag), 0.99), "ms"},
		"harness.gen_s":                   {genTime.Seconds(), "s"},
		"harness.trace_overhead_pct":      {(cpuPerOp(win)/cpuPerOp(ref) - 1) * 100, "%"},
		"fail_ratio":                      {float64(ref.failed+win.failed) / float64(ref.attempted+win.attempted), "ratio"},
	}
	var live editSamples
	if ef, ok := f.(*editFed); ok {
		live = ef.samples
	}
	perEdit := func(v int64) float64 {
		if live.n == 0 {
			return 0
		}
		return float64(v) / float64(live.n)
	}
	m["transport.edit_transit_us_p50"] = metric{us(live.transit), "us"}
	m["stream.apply_us_p50"] = metric{us(live.apply), "us"}
	m["stream.revalidated_bytes_per_edit"] = metric{perEdit(live.revalidated), "B"}
	m["stream.skipped_bytes_per_edit"] = metric{perEdit(live.skipped), "B"}
	m["live.publish_us_p50"] = metric{us(live.publish), "us"}
	m["live.edit_wire_bytes"] = metric{perEdit(live.wireBytes), "B"}

	tok, feed, ser, loopErr := microloops(p.frags)
	m["stream.tokenize_mb_s"] = metric{tok, "MB/s"}
	m["stream.feed_mb_s"] = metric{feed, "MB/s"}
	m["xmltree.serialize_mb_s"] = metric{ser, "MB/s"}

	correct := ref.failed == 0 && win.failed == 0 && loopErr == nil
	for _, e := range []error{ref.firstErr, win.firstErr, loopErr} {
		if e != nil {
			fmt.Fprintf(os.Stderr, "failure: %v\n", e)
		}
	}
	var coverage float64
	if p.check != nil {
		var cerr error
		coverage, cerr = p.check(spans, traced)
		if cerr != nil {
			fmt.Fprintf(os.Stderr, "completeness check: %v\n", cerr)
			correct = false
		}
	}
	m["harness.trace_coverage"] = metric{coverage, "ratio"}

	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.tsv", w.name, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(path, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(spans), path)
	return &result{Correct: correct, Attempted: ref.attempted + win.attempted,
		Failed: ref.failed + win.failed, Metrics: m}, nil
}

// checkTrace is central-bulk's completeness check. The kernel peer's
// time in Session.Open, in Fragment.Next and between Next returns must
// cover the operations to within coverageTol, and the host's
// chunk-shipping Writes must number exactly the chunks the wire
// accounts minus the final flush of each fragment (issued after
// Serialize returns).
func (in *bulkInputs) checkTrace(spans []span, ops int) (float64, error) {
	var opNs, covered int64
	var sends int64
	for _, s := range spans {
		if s.op < 0 {
			continue
		}
		switch s.name {
		case spanOp:
			opNs += s.dur()
		case spanOpen, spanRecvWait, spanConsume:
			covered += s.dur()
		case spanSend:
			sends++
		}
	}
	if opNs == 0 {
		return 0, fmt.Errorf("no operation spans")
	}
	coverage := float64(covered) / float64(opNs)
	// Per fragment: frames = 1 envelope + chunks, and all chunks but
	// the last ship inside a Write.
	wantSends := int64(ops) * (in.wantFrames - 2*int64(len(in.docs)))
	if sends != wantSends {
		return coverage, fmt.Errorf("%d chunk-shipping writes traced, want %d", sends, wantSends)
	}
	if coverage < 1-coverageTol || coverage > 1+coverageTol {
		return coverage, fmt.Errorf("open+recv_wait+consume cover %.3f of operation time, want within %.2f of 1", coverage, coverageTol)
	}
	return coverage, nil
}

// nopHandler accepts every event: the tokenizer alone.
type nopHandler struct{}

func (nopHandler) StartElement(string) error { return nil }
func (nopHandler) Text() error               { return nil }
func (nopHandler) EndElement() error         { return nil }

// microloops times the stream and xmltree entry points directly on the
// workload's own documents, fed in wire-sized chunks: tokenizing alone
// (stream.NewFeeder with a no-op handler), tokenizing plus the
// automaton step (Machine.NewFeeder over each document's local type),
// and serializing (Tree.ToXML into io.Discard). Each verdict is checked
// against the reference.
func microloops(frags []fragment) (tokenize, feed, serialize float64, err error) {
	docs := make([][]byte, len(frags))
	machines := make([]*stream.Machine, len(frags))
	for i, fr := range frags {
		var b bytes.Buffer
		if err := fr.doc.ToXML(&b); err != nil {
			return 0, 0, 0, err
		}
		docs[i] = b.Bytes()
		machines[i] = stream.Compile(fr.local)
	}
	feedAll := func(i int, f *stream.Feeder) error {
		for b := docs[i]; len(b) > 0; {
			n := min(len(b), p2pChunk)
			if err := f.Feed(b[:n]); err != nil {
				break // the verdict is Close's
			}
			b = b[n:]
		}
		return f.Close()
	}
	rate := func(pass func(i int) error) (float64, error) {
		var n int64
		start := time.Now()
		for time.Since(start) < microloopTime {
			for i := range docs {
				if err := pass(i); err != nil {
					return 0, err
				}
				n += int64(len(docs[i]))
			}
		}
		return float64(n) / 1e6 / time.Since(start).Seconds(), nil
	}
	if tokenize, err = rate(func(i int) error {
		if err := feedAll(i, stream.NewFeeder(nopHandler{})); err != nil {
			return fmt.Errorf("tokenizer rejected fragment %d: %w", i, err)
		}
		return nil
	}); err != nil {
		return
	}
	if feed, err = rate(func(i int) error {
		if verr := feedAll(i, machines[i].NewFeeder()); (verr == nil) != frags[i].valid {
			return fmt.Errorf("fragment %d: streaming verdict %v, reference %v", i, verr == nil, frags[i].valid)
		}
		return nil
	}); err != nil {
		return
	}
	serialize, err = rate(func(i int) error { return frags[i].doc.ToXML(io.Discard) })
	return
}
