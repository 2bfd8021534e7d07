package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"dxml/internal/axml"
	"dxml/internal/host"
	"dxml/internal/live"
	"dxml/internal/p2p"
	"dxml/internal/transport"
	"dxml/internal/xmltree"
)

// live-edits: one editor publishes subtree replaces into f1 while one
// kernel peer holds a live session through the host, closed loop. Each
// operation runs from publish to the kernel peer's LiveUpdate for that
// edit: small edit frames and incremental revalidation on the same
// transport and stream layers that central-bulk drives with bulk
// chunks, so a bulk-path gain that adds per-frame latency shows here.

const (
	editEntries   = 10000 // entries in f1
	editFlipShare = 0.1   // share of edits that plant an invalid entry
	editPlanLen   = 1 << 16
	editWarmup    = 200
	editCompact   = 64 // compact the editor's log every this many edits
	editTimeout   = 10 * time.Second
)

type editInputs struct {
	ty   types
	docs []*xmltree.Tree
	plan []edit
	warm []edit
}

func genEdits(seed int64) (*editInputs, error) {
	ty, err := classDTD.solve()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	docs, err := eurostatDocs(rng, ty, []int{editEntries, 2, 1})
	if err != nil {
		return nil, err
	}
	in := &editInputs{ty: ty, docs: docs}
	root := ty.typing[1].Starts[0]
	if in.plan, err = editPlan(rng, editPlanLen, editEntries, editFlipShare, ty.typing[1], root); err != nil {
		return nil, err
	}
	if in.warm, err = editPlan(rng, editWarmup, editEntries, 0, ty.typing[1], root); err != nil {
		return nil, err
	}
	return in, nil
}

type editFed struct {
	in      *editInputs
	tr      *tracer
	h       *hostRig
	n       *p2p.Network
	sess    transport.Session
	lv      *p2p.LiveFederation
	ed      *live.Editor
	timer   *time.Timer
	samples editSamples
}

// editSamples are the traced run's per-edit layer timings.
type editSamples struct {
	publish, transit, apply []time.Duration
	revalidated, skipped    int64
	wireBytes               int64
	n                       int64
}

func setupEdits(in *editInputs, tr *tracer, cost *setupCost) (federation, error) {
	ty, err := cost.solve(classDTD)
	if err != nil {
		return nil, err
	}
	kernel, err := axml.ParseKernel(classDTD.kernelTerm(0))
	if err != nil {
		return nil, err
	}
	f := &editFed{in: in, tr: tr, timer: time.NewTimer(editTimeout)}
	d := cost.design("eurostat-live", kernel, ty, in.docs, tr, func(eds map[string]*live.Editor) {
		f.ed = eds["f1"]
	})
	if f.h, err = startHost(host.Config{Obs: tr.collector()}, []host.Design{d}); err != nil {
		return nil, err
	}
	if f.n, f.sess, err = join(f.h.addr(), kernel, ty, tr, -1); err != nil {
		f.h.close()
		return nil, err
	}
	cost.add(&cost.compile, timeIt(func() { f.n.GlobalMachine() }))
	if f.lv, err = f.n.OpenLive(context.Background()); err != nil {
		f.close()
		return nil, err
	}
	if !f.lv.Valid() {
		f.close()
		return nil, fmt.Errorf("live session opened invalid, want valid")
	}
	for i, e := range in.warm {
		if _, err := f.apply(e, nil); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up edit %d: %w", i, err)
		}
	}
	f.samples = editSamples{}
	return f, nil
}

func (f *editFed) op(k int) (int64, error) {
	if k > 0 && k%editCompact == 0 {
		// The kernel peer has applied every published edit; a real
		// editing site bounds its log the same way.
		f.ed.Compact(f.ed.Version())
	}
	return f.apply(f.in.plan[k%len(f.in.plan)], f.tr)
}

// apply publishes one edit and waits for the kernel peer's update for
// it, checking the verdict and the edit's wire cost. It returns the
// bytes the kernel peer revalidated for the edit.
func (f *editFed) apply(e edit, tr *tracer) (int64, error) {
	before := f.n.Stats.Totals()
	t0 := time.Now()
	pub, err := f.ed.ReplaceSubtree([]int{e.pos}, e.payload)
	t1 := time.Now()
	if err != nil {
		return 0, err
	}
	var up p2p.LiveUpdate
	f.timer.Reset(editTimeout)
	select {
	case u, ok := <-f.lv.Updates():
		if !ok {
			return 0, fmt.Errorf("live session closed")
		}
		up = u
	case <-f.timer.C:
		return 0, fmt.Errorf("no update for edit %d within %v", pub.Version, editTimeout)
	}
	t3 := time.Now()
	switch {
	case up.Err != nil:
		return 0, up.Err
	case up.Fn != "f1" || up.Version != pub.Version:
		return 0, fmt.Errorf("update for %s@%d, want f1@%d", up.Fn, up.Version, pub.Version)
	case up.Valid != e.valid:
		return 0, fmt.Errorf("edit %d: verdict %v, want %v", pub.Version, up.Valid, e.valid)
	case up.WireBytes != e.wire:
		return 0, fmt.Errorf("edit %d: %d wire bytes, want %d", pub.Version, up.WireBytes, e.wire)
	}
	// The kernel peer accounts the edit frame and, once applied, the
	// verdict update it sends back (14 bytes) before emitting the
	// update.
	after := f.n.Stats.Totals()
	if b, fr := after.Bytes-before.Bytes, after.Frames-before.Frames; b != e.wire+14 || fr != 2 {
		return 0, fmt.Errorf("edit %d: wire %d bytes in %d frames, want %d in 2", pub.Version, b, fr, e.wire+14)
	}
	if tr != nil {
		if tr.editVer.Load() != pub.Version {
			return 0, fmt.Errorf("edit %d: traced feed saw version %d", pub.Version, tr.editVer.Load())
		}
		recv := tr.epoch.Add(time.Duration(tr.editRecv.Load()))
		s := &f.samples
		s.publish = append(s.publish, t1.Sub(t0))
		s.transit = append(s.transit, recv.Sub(t1))
		s.apply = append(s.apply, t3.Sub(recv))
		s.revalidated += int64(up.Revalidated)
		s.skipped += int64(up.Skipped)
		s.wireBytes += int64(up.WireBytes)
		s.n++
	}
	return int64(up.Revalidated), nil
}

func (f *editFed) wire() (int64, int64) {
	t := f.n.Stats.Totals()
	return int64(t.Bytes), int64(t.Frames)
}

func (f *editFed) rig() *hostRig { return f.h }

func (f *editFed) close() {
	f.timer.Stop()
	if f.lv != nil {
		f.lv.Close()
	}
	f.sess.Close()
	f.h.close()
}
