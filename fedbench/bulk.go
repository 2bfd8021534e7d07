package main

import (
	"fmt"
	"math/rand"

	"dxml/internal/axml"
	"dxml/internal/host"
	"dxml/internal/p2p"
	"dxml/internal/transport"
	"dxml/internal/xmltree"
)

// central-bulk: one long-lived session validating the Eurostat
// federation centrally, closed loop. Documents move, so serialization,
// framing and credit flow, tokenizing and the automaton step do the
// work; admission runs once and no live code runs.

// bulkEntries is each country fragment's entry count: ~0.62 MB shipped
// per operation across f1–f3, ~50 chunks per fragment, so each
// transfer outruns the 32-chunk credit window and credit flow is
// exercised. It is sized so that a run of the benchmark's length
// completes at least 1000 operations (10 beyond the p99).
const bulkEntries = 2000

type bulkInputs struct {
	ty   types
	docs []*xmltree.Tree
	// want is the exact protocol traffic of one valid round: an
	// envelope of len(fn)+1 bytes per docking point plus every
	// document's bytes, in one envelope frame plus ceil(size/chunk)
	// chunk frames per docking point.
	wantBytes, wantFrames int64
	docBytes              int64
}

func genBulk(seed int64) (*bulkInputs, error) {
	ty, err := classDTD.solve()
	if err != nil {
		return nil, err
	}
	docs, err := eurostatDocs(rand.New(rand.NewSource(seed)), ty, []int{bulkEntries, bulkEntries, bulkEntries})
	if err != nil {
		return nil, err
	}
	in := &bulkInputs{ty: ty, docs: docs}
	kernel := axml.MustParseKernel(classDTD.kernelTerm(0))
	for i, fn := range kernel.Funcs() {
		size := int64(docs[i].XMLSize())
		in.docBytes += size
		in.wantBytes += int64(len(fn)+1) + size
		in.wantFrames += 1 + (size+p2p.DefaultChunkSize-1)/p2p.DefaultChunkSize
	}
	return in, nil
}

type bulkFed struct {
	in   *bulkInputs
	h    *hostRig
	n    *p2p.Network
	sess transport.Session
}

func setupBulk(in *bulkInputs, tr *tracer, cost *setupCost) (federation, error) {
	ty, err := cost.solve(classDTD)
	if err != nil {
		return nil, err
	}
	kernel, err := axml.ParseKernel(classDTD.kernelTerm(0))
	if err != nil {
		return nil, err
	}
	d := cost.design("eurostat", kernel, ty, in.docs, tr, nil)
	h, err := startHost(host.Config{Obs: tr.collector()}, []host.Design{d})
	if err != nil {
		return nil, err
	}
	n, sess, err := join(h.addr(), kernel, ty, tr, -1)
	if err != nil {
		h.close()
		return nil, err
	}
	f := &bulkFed{in: in, h: h, n: n, sess: sess}
	cost.add(&cost.compile, timeIt(func() { n.GlobalMachine() }))
	// Warm-up: the first round materializes the design and fills the
	// transport's buffer pools.
	if _, err := f.op(-1); err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return f, nil
}

func (f *bulkFed) op(k int) (int64, error) {
	before := f.n.Stats.Totals()
	ok, err := f.n.ValidateCentralized()
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("verdict false, want true")
	}
	after := f.n.Stats.Totals()
	if b, fr := int64(after.Bytes-before.Bytes), int64(after.Frames-before.Frames); b != f.in.wantBytes || fr != f.in.wantFrames {
		return 0, fmt.Errorf("wire %d bytes in %d frames, want %d in %d", b, fr, f.in.wantBytes, f.in.wantFrames)
	}
	return f.in.docBytes, nil
}

func (f *bulkFed) wire() (int64, int64) {
	t := f.n.Stats.Totals()
	return int64(t.Bytes), int64(t.Frames)
}

func (f *bulkFed) rig() *hostRig { return f.h }

func (f *bulkFed) close() {
	f.sess.Close()
	f.h.close()
}
