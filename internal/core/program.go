package core

import (
	"fmt"
	"slices"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// program is a rule compiled against its table as the table now is: what a
// firing would otherwise work out from names — which log records trigger
// it, where each bound table goes, where the `unique on` columns are, the
// function it runs and the function's uniqueness table, counters and
// breaker — fixed once. It is immutable; the commit hook, the queued
// firings and the running actions all read it without a lock. Programs
// are rebuilt, never patched: see Engine.publishLocked.
type program struct {
	rule *Rule
	// err is why the rule does not compile against the table (re-created
	// under a schema its queries or its function's bound-table signature no
	// longer fit); a commit that triggers the rule fails with it.
	err error

	// The transition predicate. An update triggers when updateAny, or when
	// one of the base-table columns updateCols differs between its images.
	onInsert, onDelete, updateAny bool
	updateCols                    []int

	// sig defines the firing's bound tables, sorted by name; a table's
	// position here is its slot in every firing's bound list. It is the
	// function's signature, shared by all the rules that execute it
	// (paper §2: they must define their bound tables identically).
	sig []*catalog.Schema
	// condSlot and evalSlot give, per Condition and Evaluate query, the slot
	// its result is bound to (-1: not bound); transBind, per BindTransitions
	// entry, the transition table and its slot.
	condSlot, evalSlot []int
	transBind          []transBind
	// unique locates each `unique on` column; uniqueTables lists the slots
	// holding at least one (Appendix A's T^u), ascending.
	unique       []uniqueLoc
	uniqueTables []int

	fn    ActionFunc
	set   *uniqueSet // nil unless the rule is unique
	stats *fnMetrics
	br    *breaker // nil when breakers are disabled
	// costFn re-prices a firm task at shed time (sched.Task.CostFn).
	costFn func() float64
}

type transBind struct{ trans, slot int }

// uniqueLoc is where a `unique on` column lives: bound slot and column; and
// which T^u table (index into uniqueTables) that is and the column's
// position among that table's unique columns.
type uniqueLoc struct{ slot, col, wheel, pos int }

// tablePrograms is the immutable rule set of one table: the schema it was
// compiled against, the transition-table prototypes for that schema, and
// one program per rule in creation order.
type tablePrograms struct {
	base   *catalog.Schema
	protos *transProtos
	progs  []*program
}

// compileTable compiles a table's rules against base, reusing prev's
// transition prototypes when they describe the same schema. Caller holds
// e.mu.
func (e *Engine) compileTable(prev *tablePrograms, rules []*Rule, base *catalog.Schema) *tablePrograms {
	tp := &tablePrograms{base: base, progs: make([]*program, len(rules))}
	var err error
	switch {
	case base == nil:
		// The table is gone. A commit can only reach these programs on a
		// re-created table, and then it recompiles them first.
		err = fmt.Errorf("unknown table")
	case prev != nil && prev.base == base:
		tp.protos = prev.protos
	default:
		tp.protos, err = newTransProtos(base)
	}
	for i, r := range rules {
		if err != nil {
			tp.progs[i] = &program{rule: r, err: fmt.Errorf("core: rule %s on table %q: %w", r.Name, r.Table, err)}
		} else {
			tp.progs[i] = e.compile(r, tp.protos)
		}
	}
	return tp
}

// compile builds one rule's program. It never fails: a rule that does not
// fit the table yields a program carrying the reason. Caller holds e.mu.
func (e *Engine) compile(r *Rule, protos *transProtos) *program {
	base := protos.base
	p := &program{
		rule: r, fn: e.funcs[r.Action], stats: e.stats[r.Action], br: e.breakers[r.Action],
	}
	if r.Unique {
		p.set = e.sets[r.Action]
	}
	if r.Firm {
		stats := p.stats
		p.costFn = func() float64 { return shedCost(stats, r) }
	}
	for _, ev := range r.Events {
		switch ev.Kind {
		case Inserted:
			p.onInsert = true
		case Deleted:
			p.onDelete = true
		case Updated:
			if len(ev.Columns) == 0 {
				p.updateAny = true
			}
			for _, c := range ev.Columns {
				if ci := base.ColIndex(c); ci >= 0 && !slices.Contains(p.updateCols, ci) {
					p.updateCols = append(p.updateCols, ci)
				}
			}
		}
	}

	// Bound-table definitions, from the queries' static output schemas.
	lookup := func(name string) *catalog.Schema {
		if slot := slices.Index(transNames[:], name); slot >= 0 {
			return protos.tables[slot].Schema()
		}
		s, _ := e.Txns.Catalog.Lookup(name)
		return s
	}
	var defs []*catalog.Schema
	for _, qs := range [2][]*query.Select{r.Condition, r.Evaluate} {
		for _, q := range qs {
			if q.Bind == "" {
				continue
			}
			s, err := q.OutputSchema(lookup)
			if err != nil {
				p.err = fmt.Errorf("core: rule %s: bind %q: %w", r.Name, q.Bind, err)
				return p
			}
			defs = append(defs, s)
		}
	}
	for _, name := range r.BindTransitions {
		defs = append(defs, lookup(name))
	}
	if r.BindCommitTime {
		for i, s := range defs {
			var err error
			if defs[i], err = s.WithColumns(catalog.Column{Name: CommitTimeCol, Kind: types.KindTime}); err != nil {
				p.err = fmt.Errorf("core: rule %s: bind %q: %w", r.Name, s.Name(), err)
				return p
			}
		}
	}
	slices.SortFunc(defs, func(a, b *catalog.Schema) int {
		if a.Name() < b.Name() {
			return -1
		}
		return 1 // names are distinct (Rule.validate)
	})
	if p.sig = e.bindSig[r.Action]; p.sig == nil {
		p.sig = defs
	} else if p.err = sameBindSignature(r, p.sig, defs); p.err != nil {
		return p
	}
	slot := func(name string) int {
		return slices.IndexFunc(p.sig, func(s *catalog.Schema) bool { return s.Name() == name })
	}
	bindSlots := func(qs []*query.Select) []int {
		out := make([]int, len(qs))
		for i, q := range qs {
			out[i] = -1
			if q.Bind != "" {
				out[i] = slot(q.Bind)
			}
		}
		return out
	}
	p.condSlot, p.evalSlot = bindSlots(r.Condition), bindSlots(r.Evaluate)
	for _, name := range r.BindTransitions {
		p.transBind = append(p.transBind, transBind{trans: slices.Index(transNames[:], name), slot: slot(name)})
	}

	if p.err = p.locateUnique(); p.err != nil {
		return p
	}
	// The function's first rule to compile fixes its signature.
	e.bindSig[r.Action] = p.sig
	return p
}

// locateUnique finds each `unique on` column among the bound tables'
// definitions (Appendix A: a unique column belongs to exactly one table).
func (p *program) locateUnique() error {
	r := p.rule
	if len(r.UniqueOn) > types.MaxKeyWidth {
		return fmt.Errorf("core: rule %s: unique column width %d exceeds %d", r.Name, len(r.UniqueOn), types.MaxKeyWidth)
	}
	for _, name := range r.UniqueOn {
		loc := uniqueLoc{slot: -1}
		for si, s := range p.sig {
			ci := s.ColIndex(name)
			if ci < 0 {
				continue
			}
			if loc.slot >= 0 {
				return fmt.Errorf("core: rule %s: unique column %q appears in multiple bound tables", r.Name, name)
			}
			loc = uniqueLoc{slot: si, col: ci}
		}
		if loc.slot < 0 {
			return fmt.Errorf("core: rule %s: unique column %q not found in any bound table", r.Name, name)
		}
		p.unique = append(p.unique, loc)
		if !slices.Contains(p.uniqueTables, loc.slot) {
			p.uniqueTables = append(p.uniqueTables, loc.slot)
		}
	}
	slices.Sort(p.uniqueTables)
	for i := range p.unique {
		loc := &p.unique[i]
		loc.wheel = slices.Index(p.uniqueTables, loc.slot)
		for _, before := range p.unique[:i] {
			if before.slot == loc.slot {
				loc.pos++
			}
		}
	}
	return nil
}

// sameBindSignature enforces the paper's §2 requirement: all rules that
// execute the same user function must define their bound tables
// identically. Both lists are sorted by table name.
func sameBindSignature(rule *Rule, sig, defs []*catalog.Schema) error {
	if len(sig) != len(defs) {
		return fmt.Errorf("core: rule %s binds %d tables for function %s, expected %d",
			rule.Name, len(defs), rule.Action, len(sig))
	}
	for i, d := range defs {
		if sig[i].Name() != d.Name() {
			return fmt.Errorf("core: rule %s binds unexpected table %q for function %s",
				rule.Name, d.Name(), rule.Action)
		}
		if !sig[i].Equal(d) {
			return fmt.Errorf("core: rule %s binds table %q with a different definition for function %s",
				rule.Name, d.Name(), rule.Action)
		}
	}
	return nil
}

// triggered evaluates the transition predicate against the table's log.
func (p *program) triggered(recs []txn.LogRec) bool {
	for i := range recs {
		rec := &recs[i]
		switch rec.Op {
		case txn.OpInsert:
			if p.onInsert {
				return true
			}
		case txn.OpDelete:
			if p.onDelete {
				return true
			}
		case txn.OpUpdate:
			if p.updateAny {
				return true
			}
			for _, c := range p.updateCols {
				if types.Compare(rec.Old.At(c), rec.New.At(c)) != 0 {
					return true
				}
			}
		}
	}
	return false
}

// splitter implements Appendix A: the bound tables holding unique columns
// (T^u) are divided by the distinct values of those columns, and next
// yields one partition per combination in π_U(Π T^u) — the product of the
// tables' distinct partial keys, which for the usual single T^u table is
// just its distinct keys in order of first appearance — holding that
// combination's rows of each T^u table and every other table whole. The
// splitter consumes the bound tables: each, or each piece of it, ends up
// in exactly one partition (a table that several partitions need goes to
// the last as itself and to the others as copies), or is retired when
// there is no partition at all.
type splitter struct {
	prog  *program
	bound []*storage.TempTable
	// wheels are the T^u tables. Wheel w owns [w.lo, w.lo+w.n) of keys, its
	// distinct partial keys in order of first appearance; of pieces, the
	// rows of each; and of left, how many partitions still need them.
	wheels []wheel
	keys   []types.Key
	pieces []*storage.TempTable
	left   []int
	c, n   int // next combination, number of combinations
	part   []*storage.TempTable
}

type wheel struct{ slot, lo, n int }

// splitBuf is room for the usual shapes, so that a firing's split lives on
// the committer's stack: the splitter's slices start out in it (and must
// not outlive it).
type splitBuf struct {
	wheels [2]wheel
	keys   [8]types.Key
	pieces [8]*storage.TempTable
	left   [8]int
	part   [inlineBound]*storage.TempTable
}

// split divides p's firing's bound tables.
func (b *splitBuf) split(p *program, bound []*storage.TempTable) splitter {
	s := splitter{prog: p, bound: bound, n: 1,
		wheels: b.wheels[:0], keys: b.keys[:0], pieces: b.pieces[:0], left: b.left[:0], part: b.part[:0]}
	for _, slot := range p.uniqueTables {
		w := wheel{slot: slot, lo: len(s.keys)}
		tt := bound[slot]
		var groupBuf [16]int
		group := groupBuf[:0]
		for r := 0; r < tt.Len(); r++ {
			var vals [types.MaxKeyWidth]types.Value
			nv := 0
			for _, loc := range p.unique {
				if loc.slot == slot {
					vals[nv] = *tt.At(r, loc.col)
					nv++
				}
			}
			g := slices.Index(s.keys[w.lo:], types.MakeKey(vals[:nv]...))
			if g < 0 {
				g = w.n
				w.n++
				s.keys = append(s.keys, types.MakeKey(vals[:nv]...))
				s.left = append(s.left, 0)
			}
			group = append(group, g)
			s.left[w.lo+g]++
		}
		// left holds the pieces' row counts until the split, then their uses.
		if w.n == 1 {
			s.pieces = append(s.pieces, tt)
		} else if w.n > 1 {
			pieces := tt.Split(group, s.left[w.lo:])
			for i := range pieces {
				s.pieces = append(s.pieces, &pieces[i])
			}
		}
		s.wheels = append(s.wheels, w)
		s.n *= w.n
	}
	for _, w := range s.wheels {
		for g := 0; g < w.n; g++ {
			s.left[w.lo+g] = s.n / w.n
		}
	}
	if s.n == 0 {
		// An empty T^u table: no combinations, no transactions.
		retireAll(bound)
		retireAll(s.pieces)
	}
	return s
}

// next yields the next partition's key and tables; part is the splitter's
// own buffer, valid until the following call.
func (s *splitter) next() (key types.Key, part []*storage.TempTable, ok bool) {
	if s.c >= s.n {
		return key, nil, false
	}
	part = append(s.part[:0], s.bound...)
	if last := s.c == s.n-1; !last {
		for slot, tt := range part {
			if !slices.Contains(s.prog.uniqueTables, slot) {
				part[slot] = tt.Copy()
			}
		}
	}
	// The combination is s.c read as a number whose digits are the wheels'
	// positions, the last wheel turning fastest.
	var at [types.MaxKeyWidth]int
	rem := s.c
	for wi := len(s.wheels) - 1; wi >= 0; wi-- {
		w := s.wheels[wi]
		at[wi] = w.lo + rem%w.n
		rem /= w.n
		part[w.slot] = s.pieces[at[wi]]
		if s.left[at[wi]]--; s.left[at[wi]] > 0 {
			part[w.slot] = part[w.slot].Copy()
		}
	}
	var vals [types.MaxKeyWidth]types.Value
	for i, loc := range s.prog.unique {
		vals[i] = s.keys[at[loc.wheel]].At(loc.pos)
	}
	s.c++
	return types.MakeKey(vals[:len(s.prog.unique)]...), part, true
}
