package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"dxml/internal/axml"
	"dxml/internal/host"
)

// verdict-churn: independent users each run one `dxml join` — dial a
// fresh session (hello, admission), one distributed validation round,
// close — arriving on a fixed schedule (open loop). Verdicts move
// instead of documents, so connection set-up, admission,
// materialization and peer-side validation do the work while the
// tokenizer, serializer and chunk flow idle. More tenants are
// registered than may be resident, so a seeded share of hellos pays an
// eviction and a rebuild.

const (
	churnTenantsN = 16  // registered designs, alternating DTD and τ″
	churnResident = 12  // host.Config.MaxResidentDesigns
	churnInvalid  = 4   // tenants holding one corrupted fragment
	churnRate     = 500 // arrivals per second, a quarter of 2 vCPUs busy
	churnSchedule = 1 << 16
)

type churnInputs struct {
	tys     [2]types
	tenants []tenant
	seq     []int // tenant of each operation, cycled
}

func genChurn(seed int64) (*churnInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	var tys [2]types
	for _, c := range []class{classDTD, classEDTD} {
		ty, err := c.solve()
		if err != nil {
			return nil, err
		}
		tys[c] = ty
	}
	ts, err := churnTenants(rng, tys, churnTenantsN, churnInvalid)
	if err != nil {
		return nil, err
	}
	in := &churnInputs{tys: tys, tenants: ts, seq: make([]int, churnSchedule)}
	for i := range in.seq {
		in.seq[i] = rng.Intn(len(ts))
	}
	return in, nil
}

type churnFed struct {
	in      *churnInputs
	tr      *tracer
	h       *hostRig
	tys     [2]types
	kernels []*axml.Kernel
	bytes   atomic.Int64
	frames  atomic.Int64
}

func setupChurn(in *churnInputs, tr *tracer, cost *setupCost) (federation, error) {
	f := &churnFed{in: in, tr: tr}
	for _, c := range []class{classDTD, classEDTD} {
		ty, err := cost.solve(c)
		if err != nil {
			return nil, err
		}
		f.tys[c] = ty
	}
	var designs []host.Design
	for _, t := range in.tenants {
		k, err := axml.ParseKernel(t.class.kernelTerm(t.base))
		if err != nil {
			return nil, err
		}
		f.kernels = append(f.kernels, k)
		designs = append(designs, cost.design(t.name, k, f.tys[t.class], t.docs, tr, nil))
	}
	h, err := startHost(host.Config{MaxResidentDesigns: churnResident, Obs: tr.collector()}, designs)
	if err != nil {
		return nil, err
	}
	f.h = h
	// Warm-up: every tenant joins once, in order, so the resident set
	// is full and LRU-ordered before timing starts.
	for id := range in.tenants {
		if _, err := f.join(id, -1); err != nil {
			h.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, nil
}

func (f *churnFed) op(k int) (int64, error) {
	return f.join(f.in.seq[k%len(f.in.seq)], int64(k))
}

// join is one user's join against tenant id: dial, validate, close.
func (f *churnFed) join(id int, op int64) (int64, error) {
	t := &f.in.tenants[id]
	n, sess, err := join(f.h.addr(), f.kernels[id], f.tys[t.class], f.tr, op)
	if err != nil {
		return 0, err
	}
	ok, err := n.ValidateDistributed()
	sess.Close()
	if err != nil {
		return 0, err
	}
	tot := n.Stats.Totals()
	f.bytes.Add(int64(tot.Bytes))
	f.frames.Add(int64(tot.Frames))
	if ok != t.valid {
		return 0, fmt.Errorf("%s: verdict %v, want %v", t.name, ok, t.valid)
	}
	if t.valid {
		// A valid round delivers every verdict: one frame of len(fn)+1
		// bytes per docking point.
		var want int
		for _, fn := range f.kernels[id].Funcs() {
			want += len(fn) + 1
		}
		if tot.Bytes != want || tot.Frames != len(f.kernels[id].Funcs()) {
			return 0, fmt.Errorf("%s: wire %d bytes in %d frames, want %d in %d", t.name, tot.Bytes, tot.Frames, want, len(f.kernels[id].Funcs()))
		}
	}
	return t.bytes, nil
}

func (f *churnFed) wire() (int64, int64) { return f.bytes.Load(), f.frames.Load() }

func (f *churnFed) rig() *hostRig { return f.h }

func (f *churnFed) close() { f.h.close() }
