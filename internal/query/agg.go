package query

import (
	"fmt"

	"github.com/stripdb/strip/internal/types"
)

// aggSpec is one aggregate select item of a compiled plan. What it tracks
// per group follows from agg and is fixed at compile time, so the row loop
// touches exactly the fields it needs: COUNT a row count (arg is not
// evaluated), SUM a sum — int64 when exact, float64 otherwise — AVG a
// float64 sum and a count, MIN / MAX one extremum under types.Compare.
type aggSpec struct {
	item  int // position in the select list
	agg   AggKind
	exact bool // AggSum whose argument's static kind is INT
	arg   lowered
}

// accum is one aggregate's running state for one group. Which fields are
// live follows the aggSpec: n for COUNT (bumped by the row loop, which has
// no argument to fold) and AVG, i for an exact SUM (f takes any FLOAT the
// column turns out to hold), f for the other SUMs and AVG, v for MIN / MAX.
type accum struct {
	n int64
	i int64
	f float64
	v types.Value
}

func (a *accum) fold(sp *aggSpec, v *types.Value) error {
	switch sp.agg {
	case AggSum, AggAvg:
		switch {
		case sp.exact && v.Kind() == types.KindInt:
			a.i += v.Int()
		case v.Numeric():
			a.f += v.Float()
		default:
			return fmt.Errorf("query: %s over %s value", sp.agg, v.Kind())
		}
		a.n++
	case AggMin:
		if a.v.IsNull() || types.Compare(v, &a.v) < 0 {
			a.v = *v
		}
	case AggMax:
		if a.v.IsNull() || types.Compare(v, &a.v) > 0 {
			a.v = *v
		}
	}
	return nil
}

func (a *accum) result(sp *aggSpec) types.Value {
	switch sp.agg {
	case AggCount:
		return types.Int(a.n)
	case AggSum:
		if sp.exact {
			return types.Int(a.i + int64(a.f))
		}
		return types.Float(a.f)
	case AggAvg:
		return types.Float(a.f / float64(a.n))
	default:
		return a.v
	}
}

// groups is the aggregation state of one run: per group, its key (the
// grouped columns' values, nothing else) and one accum per aggregate item,
// both in flat slabs indexed by group number in first-seen order. A query
// without GROUP BY has key width 0 and at most one group, and never touches
// the hash table.
type groups struct {
	width int // grouped columns
	nAgg  int
	n     int
	keys  []types.Value // group g's key at keys[g*width:]
	accs  []accum       // group g's accumulators at accs[g*nAgg:]

	// Open-addressing table over the keys: slots hold group number + 1
	// (0 = empty), hashes the full hash per group so growth never rehashes
	// a key.
	slots  []int32
	hashes []uint64
	key    []types.Value // scratch: the current row's key
}

func newGroups(width, nAgg int) *groups {
	g := &groups{width: width, nAgg: nAgg}
	if width > 0 {
		g.key = make([]types.Value, width)
		g.slots = make([]int32, 16)
	}
	return g
}

// lookup returns the accumulators of the group whose key is g.key (filled
// by the caller), creating the group on first sight. Keys match under ==,
// as the uniqueness tables' do: 1 and 1.0 are different groups, a NaN is
// always a new one.
func (g *groups) lookup() []accum {
	if g.width == 0 {
		if g.n == 0 {
			g.n = 1
			g.accs = make([]accum, g.nAgg)
		}
		return g.accs
	}
	h := uint64(len(g.key))
	for i := range g.key {
		h = g.key[i].Hash(h)
	}
	mask := uint64(len(g.slots) - 1)
	pos := h & mask
	for ; g.slots[pos] != 0; pos = (pos + 1) & mask {
		gi := int(g.slots[pos] - 1)
		if g.hashes[gi] == h && keysEqual(g.keys[gi*g.width:(gi+1)*g.width], g.key) {
			return g.accs[gi*g.nAgg : (gi+1)*g.nAgg]
		}
	}
	gi := g.n
	g.n++
	g.slots[pos] = int32(g.n)
	g.hashes = append(g.hashes, h)
	g.keys = append(g.keys, g.key...)
	for i := 0; i < g.nAgg; i++ {
		g.accs = append(g.accs, accum{})
	}
	if 2*g.n > len(g.slots) {
		g.grow()
	}
	return g.accs[gi*g.nAgg : (gi+1)*g.nAgg]
}

func keysEqual(a, b []types.Value) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// grow doubles the slot table and re-seats every group by its saved hash.
func (g *groups) grow() {
	g.slots = make([]int32, 2*len(g.slots))
	mask := uint64(len(g.slots) - 1)
	for gi, h := range g.hashes {
		pos := h & mask
		for g.slots[pos] != 0 {
			pos = (pos + 1) & mask
		}
		g.slots[pos] = int32(gi + 1)
	}
}
