package main

import (
	"fmt"
	"math/rand"

	"dxml/internal/axml"
	"dxml/internal/core"
	"dxml/internal/gen"
	"dxml/internal/schema"
	"dxml/internal/xmltree"
)

// The benchmark's inputs are made from the seed alone; the program
// receives only these generated designs and documents. Every expected
// verdict is fixed here, by the schema package's tree validator (the
// reference the streaming validator is tested against), before any
// federation exists.

// class is a design family. Its global type and base kernel are fixed;
// tenants of one class differ only in their docking-point names, which
// enter the kernel term and so the hello digest.
type class int

const (
	// classDTD is the paper's Eurostat DTD (Figure 3) over
	// eurostat(f0 f1 f2 f3), with the Figure 4 perfect typing: every
	// local type is single-type, so peers validate on the DFA fast path.
	classDTD class = iota
	// classEDTD is the paper's τ″ (Figure 6) over
	// eurostat(f1 nationalIndex(f2) f3): no perfect typing, and its
	// maximal local typings specialize nationalIndex two ways under one
	// parent, so peers validate on the general-EDTD path.
	classEDTD
)

const eurostatDTD = `
	<!ELEMENT eurostat (averages, nationalIndex*)>
	<!ELEMENT averages (Good, index+)+>
	<!ELEMENT nationalIndex (country, Good, (index | value, year))>
	<!ELEMENT index (value, year)>
	<!ELEMENT country (#PCDATA)>
	<!ELEMENT Good (#PCDATA)>
	<!ELEMENT value (#PCDATA)>
	<!ELEMENT year (#PCDATA)>
`

const tauPP = `
	root eurostat
	eurostat -> averages, (natIndA, natIndB)+
	averages -> (Good, index+)+
	natIndA : nationalIndex -> country, Good, index
	natIndB : nationalIndex -> country, Good, value, year
	index -> value, year
`

// kernelTerm is the class's kernel with docking points renumbered from
// base (base 0 gives the paper's own kernels).
func (c class) kernelTerm(base int) string {
	if c == classDTD {
		return fmt.Sprintf("eurostat(f%d f%d f%d f%d)", base, base+1, base+2, base+3)
	}
	return fmt.Sprintf("eurostat(f%d nationalIndex(f%d) f%d)", base+1, base+2, base+3)
}

// types is a class's global type and the typing the design problem
// yields for its kernel: the perfect typing for the DTD class, the
// first maximal local typing for τ″.
type types struct {
	global *schema.EDTD
	typing core.Typing
}

// solve parses the class's global type and solves its design problem.
func (c class) solve() (types, error) {
	kernel, err := axml.ParseKernel(c.kernelTerm(0))
	if err != nil {
		return types{}, err
	}
	if c == classDTD {
		dtd, err := schema.ParseW3CDTD(schema.KindNRE, eurostatDTD)
		if err != nil {
			return types{}, err
		}
		typing, ok := (&core.DTDDesign{Type: dtd, Kernel: kernel}).ExistsPerfect()
		if !ok {
			return types{}, fmt.Errorf("eurostat design has no perfect typing")
		}
		return types{global: dtd.ToEDTD(), typing: typing}, nil
	}
	global, err := schema.ParseEDTD(schema.KindNRE, tauPP)
	if err != nil {
		return types{}, err
	}
	typings, err := (&core.EDTDDesign{Type: global, Kernel: kernel}).MaximalLocalTypings()
	if err != nil {
		return types{}, err
	}
	if len(typings) == 0 {
		return types{}, fmt.Errorf("τ″ design has no local typing")
	}
	return types{global: global, typing: typings[0]}, nil
}

// entry is one nationalIndex in format A (an index child) or B (value
// and year inline); both are valid under the Eurostat DTD.
func entry(formatA bool) *xmltree.Tree {
	ni := xmltree.New("nationalIndex", xmltree.Leaf("country"), xmltree.Leaf("Good"))
	if formatA {
		ni.Children = append(ni.Children, xmltree.New("index", xmltree.Leaf("value"), xmltree.Leaf("year")))
	} else {
		ni.Children = append(ni.Children, xmltree.Leaf("value"), xmltree.Leaf("year"))
	}
	return ni
}

// badEntry is a nationalIndex missing its index (or value and year):
// invalid under every type here.
func badEntry() *xmltree.Tree {
	return xmltree.New("nationalIndex", xmltree.Leaf("country"), xmltree.Leaf("Good"))
}

// eurostatDocs builds the DTD class's documents: f0 holds the EU
// averages, f1.. hold sizes[i] country entries each, in a seeded mix
// of the two formats.
func eurostatDocs(rng *rand.Rand, ty types, sizes []int) ([]*xmltree.Tree, error) {
	docs := make([]*xmltree.Tree, len(ty.typing))
	for i := range docs {
		doc := xmltree.New(ty.typing[i].Starts[0])
		if i == 0 {
			av := xmltree.New("averages")
			for g := 0; g < 2+rng.Intn(3); g++ {
				av.Children = append(av.Children, xmltree.Leaf("Good"),
					xmltree.New("index", xmltree.Leaf("value"), xmltree.Leaf("year")))
			}
			doc.Children = append(doc.Children, av)
		} else {
			for e := 0; e < sizes[i-1]; e++ {
				doc.Children = append(doc.Children, entry(rng.Intn(2) == 0))
			}
		}
		if err := ty.typing[i].Validate(doc); err != nil {
			return nil, fmt.Errorf("generated f%d document is invalid: %v", i, err)
		}
		docs[i] = doc
	}
	return docs, nil
}

// tenantBytes is the size of each verdict-churn tenant's documents.
const tenantBytes = 1000

// tenant is one registered design of the verdict-churn host.
type tenant struct {
	name  string
	class class
	base  int // docking points are f<base>..
	docs  []*xmltree.Tree
	valid bool // expected verdict
	bytes int64
}

// churnTenants builds n tenants alternating between the two classes.
// Fragments are small documents sampled from each local type, redrawn
// until the tenant's documents total tenantBytes within 5%, so every
// seed offers the same amount of work; a fixed share of tenants, chosen
// by the seed, then has one fragment corrupted.
func churnTenants(rng *rand.Rand, tys [2]types, n, invalid int) ([]tenant, error) {
	bad := map[int]bool{}
	for _, i := range rng.Perm(n)[:invalid] {
		bad[i] = true
	}
	out := make([]tenant, n)
	for id := range out {
		c := class(id % 2)
		ty := tys[c]
		t := tenant{name: fmt.Sprintf("tenant-%02d", id), class: c, base: 10 * (id + 1), valid: true}
		for try := 0; t.bytes < tenantBytes*95/100 || t.bytes > tenantBytes*105/100; try++ {
			if try == 1000 {
				return nil, fmt.Errorf("%s: no sample of %d bytes", t.name, tenantBytes)
			}
			t.docs, t.bytes = nil, 0
			for _, local := range ty.typing {
				s, err := gen.New(local, rng.Int63())
				if err != nil {
					return nil, err
				}
				s.WordBudget = 24
				doc, err := s.Document()
				if err != nil {
					return nil, err
				}
				t.docs = append(t.docs, doc)
				t.bytes += int64(doc.XMLSize())
			}
		}
		if bad[id] {
			i := rng.Intn(len(t.docs))
			doc, err := corrupt(rng, t.docs[i], ty.typing[i])
			if err != nil {
				return nil, fmt.Errorf("%s: %w", t.name, err)
			}
			t.bytes += int64(doc.XMLSize() - t.docs[i].XMLSize())
			t.docs[i] = doc
		}
		for i, doc := range t.docs {
			if ty.typing[i].Validate(doc) != nil {
				t.valid = false
			}
		}
		if t.valid == bad[id] {
			return nil, fmt.Errorf("%s: reference verdict %v contradicts the plan", t.name, t.valid)
		}
		out[id] = t
	}
	return out, nil
}

// corrupt returns a copy of doc with a misplaced country leaf appended
// under a random element, retried until the reference validator
// rejects it.
func corrupt(rng *rand.Rand, doc *xmltree.Tree, local *schema.EDTD) (*xmltree.Tree, error) {
	for try := 0; try < 100; try++ {
		c := doc.Clone()
		var nodes []*xmltree.Tree
		c.Walk(func(n *xmltree.Tree, _ []string) bool {
			nodes = append(nodes, n)
			return true
		})
		n := nodes[rng.Intn(len(nodes))]
		n.Children = append(n.Children, xmltree.Leaf("country"))
		if local.Validate(c) != nil {
			return c, nil
		}
	}
	return nil, fmt.Errorf("no corruption of a %s fragment was rejected", doc.Label)
}

// edit is one live-edits operation: replace the entry at pos with
// payload; valid is the global verdict the federation must report
// after it.
type edit struct {
	pos     int
	payload *xmltree.Tree
	valid   bool
	wire    int // the edit's exact wire size
}

// editPlan builds n replace edits over entries positions. A share of
// edits (flipShare) plant an invalid entry and the next edit restores
// a valid one at the same position, so the verdict flips and flips
// back; the plan ends valid, so it can be replayed in a cycle.
func editPlan(rng *rand.Rand, n, entries int, flipShare float64, local *schema.EDTD, root string) ([]edit, error) {
	valid := [2]*xmltree.Tree{entry(false), entry(true)}
	bad := badEntry()
	for _, p := range valid {
		if local.Validate(xmltree.New(root, p)) != nil {
			return nil, fmt.Errorf("valid payload %s rejected by the reference", p)
		}
	}
	if local.Validate(xmltree.New(root, bad)) == nil {
		return nil, fmt.Errorf("invalid payload %s accepted by the reference", bad)
	}
	plan := make([]edit, 0, n)
	for len(plan) < n {
		pos := rng.Intn(entries)
		if len(plan) < n-1 && rng.Float64() < flipShare {
			plan = append(plan, edit{pos: pos, payload: bad, valid: false})
		}
		plan = append(plan, edit{pos: pos, payload: valid[rng.Intn(2)], valid: true})
	}
	for i := range plan {
		// One address component (the entry's key under the fragment
		// root) plus the payload's serialization: EditFrame.WireSize.
		plan[i].wire = 16 + 8 + plan[i].payload.XMLSize()
	}
	return plan, nil
}
