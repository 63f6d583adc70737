// Package plan chooses join orders and access paths for the query
// engine's physical operator trees.
//
// The planner is deliberately decoupled from the executor: callers
// describe each FROM source as a Table (row count plus per-index
// distinct-key statistics) and each WHERE conjunct as a Pred (the
// sources it references, its selectivity class, and any index-probe
// candidates), and Choose returns an ordered pipeline of Access levels
// annotated with cost and cardinality estimates. The executor maps the
// levels back onto its own operators; this package never sees records,
// locks, or expressions.
//
// The ordering is cost-based and greedy: at each level it picks the
// unplaced source with the cheapest access path — preferring index
// probes whose key expression is fully bound by already-placed sources,
// and otherwise the smallest estimated scan — pricing paths with the
// same per-primitive virtual costs the executor charges (IndexProbe,
// ScanRow, JoinRow).
package plan

// Table describes one FROM source to the planner.
type Table struct {
	Name string
	Rows int
	Temp bool
	// IndexKeys maps each indexed column to its distinct-key count
	// (nil or empty for temp tables, which have no indexes).
	IndexKeys map[string]int
}

// Probe is one index-probe candidate of an equality predicate: probe
// Src's index on Col using the value of the predicate's other side,
// which references OtherSrcs. Candidates are listed in the caller's
// preference order (left operand first).
type Probe struct {
	Src       int
	Col       string
	OtherSrcs []int
}

// Class is the selectivity class of a predicate.
type Class uint8

const (
	Eq Class = iota
	NotEq
	Range
)

// Pred describes one WHERE conjunct. An empty Srcs means the conjunct
// is constant; the planner reports it in Result.Consts and never
// assigns it to a level.
type Pred struct {
	Srcs   []int
	Class  Class
	Probes []Probe
}

// Access is one level of the chosen nested-loop pipeline.
type Access struct {
	Src       int // FROM index placed at this level
	ProbePred int // predicate consumed as an index probe, -1 for a scan
	ProbeCand int // index into that predicate's Probes, -1 for a scan
	Residuals []int
	// Estimates, cumulative across outer loops: EstLoops is how many
	// times this level opens, EstAccess the rows its scan/probe yields
	// in total, EstOut the rows surviving this level's residuals, and
	// EstCost the virtual cost this level adds.
	EstLoops  float64
	EstAccess float64
	EstOut    float64
	EstCost   float64
}

// Result is the chosen physical pipeline.
type Result struct {
	Levels  []Access
	Consts  []int // constant predicate indexes
	EstRows float64
	EstCost float64
}

// Costs are the per-primitive virtual costs used to price access paths;
// they mirror the query fields of cost.Model.
type Costs struct {
	IndexProbe float64
	ScanRow    float64
	JoinRow    float64
}

// Default selectivities when no index statistic applies.
const (
	selEq    = 0.1
	selNotEq = 0.9
	selRange = 1.0 / 3
)

// Choose orders the given sources and assigns each predicate either to
// an index-probe slot or to the residual list of the earliest level
// where all its sources are bound.
func Choose(tables []Table, preds []Pred, c Costs) Result {
	var res Result
	for i, p := range preds {
		if len(p.Srcs) == 0 {
			res.Consts = append(res.Consts, i)
		}
	}
	if c.IndexProbe == 0 && c.ScanRow == 0 && c.JoinRow == 0 {
		// A zero cost model (live engines run uncharged) would make
		// every path free; price with the paper's default ratios so
		// planning still discriminates.
		c = Costs{IndexProbe: 25, ScanRow: 5, JoinRow: 20}
	}
	res.Levels = costOrder(tables, preds, c)
	estimate(tables, preds, res.Levels, c)
	if n := len(res.Levels); n > 0 {
		res.EstRows = res.Levels[n-1].EstOut
		for _, lv := range res.Levels {
			res.EstCost += lv.EstCost
		}
	}
	return res
}

// costOrder greedily builds the pipeline with one level of lookahead: at
// each position it prices every unplaced source's best access path
// (probe if some unused equality predicate's key side is fully bound by
// the placed set, otherwise a scan) plus the cheapest access the
// remaining sources would have once this candidate is placed, and
// commits the cheapest total, breaking ties toward the smaller output
// estimate and then FROM order.
//
// The lookahead term is what makes delta plans cheap: a large transition
// table joined to a small indexed dimension must be scanned first (one
// pass, then index probes into the dimension). A purely immediate-cost
// greedy would place the smaller dimension first — its level-0 scan is
// cheaper — and then have no probe into the unindexed transition leaf,
// turning an O(|delta|) plan into O(|dim|·|delta|).
func costOrder(tables []Table, preds []Pred, c Costs) []Access {
	n := len(tables)
	placed := make([]bool, n)
	used := make([]bool, len(preds))
	levels := make([]Access, 0, n)
	loops := 1.0
	for pos := 0; pos < n; pos++ {
		joinRow := 0.0
		if pos > 0 {
			joinRow = c.JoinRow
		}
		best := -1
		var bestAcc Access
		var bestCost, bestOut float64
		for s := 0; s < n; s++ {
			if placed[s] {
				continue
			}
			acc := Access{Src: s, ProbePred: -1, ProbeCand: -1}
			var pi, ci int
			var cost, out float64
			pi, ci, cost, out = accessCost(tables, preds, used, placed, -1, s, loops, joinRow, c)
			acc.ProbePred, acc.ProbeCand = pi, ci
			for qi, q := range preds {
				if used[qi] || qi == acc.ProbePred || len(q.Srcs) == 0 {
					continue
				}
				if boundWith(q.Srcs, placed, s) {
					out *= selectivity(tables, q)
				}
			}
			// One-level lookahead: the cheapest next access given s is
			// placed, driven by s's output cardinality. The predicate s
			// probed on is consumed for the duration so the next level
			// can't claim it twice.
			if pos < n-1 {
				nextLoops := out
				if nextLoops < 1 {
					nextLoops = 1
				}
				if pi >= 0 {
					used[pi] = true
				}
				nextBest := -1.0
				for t := 0; t < n; t++ {
					if placed[t] || t == s {
						continue
					}
					_, _, tc, _ := accessCost(tables, preds, used, placed, s, t, nextLoops, c.JoinRow, c)
					if nextBest < 0 || tc < nextBest {
						nextBest = tc
					}
				}
				if pi >= 0 {
					used[pi] = false
				}
				if nextBest > 0 {
					cost += nextBest
				}
			}
			if best < 0 || cost < bestCost ||
				(cost == bestCost && (out < bestOut || (out == bestOut && s < best))) {
				best, bestAcc, bestCost, bestOut = s, acc, cost, out
			}
		}
		placed[best] = true
		if bestAcc.ProbePred >= 0 {
			used[bestAcc.ProbePred] = true
		}
		for qi, q := range preds {
			if used[qi] || len(q.Srcs) == 0 {
				continue
			}
			if allPlaced(q.Srcs, placed) {
				bestAcc.Residuals = append(bestAcc.Residuals, qi)
				used[qi] = true
			}
		}
		levels = append(levels, bestAcc)
		loops = bestOut
		if loops < 1 {
			loops = 1
		}
	}
	return levels
}

// accessCost prices source s's best access path given the placed set
// (optionally extended by extra ≥ 0): the probe/scan choice, its virtual
// cost over loops iterations, and the raw rows it yields. Returns the
// chosen probe predicate/candidate (-1 for a scan).
func accessCost(tables []Table, preds []Pred, used, placed []bool, extra, s int, loops, joinRow float64, c Costs) (pi, ci int, cost, out float64) {
	rows := float64(tables[s].Rows)
	pi, ci, keys := bestProbeWith(tables, preds, used, placed, extra, s)
	if pi >= 0 {
		matches := rows / float64(keys)
		return pi, ci, loops * (c.IndexProbe + matches*joinRow), loops * matches
	}
	return -1, -1, loops * rows * (c.ScanRow + joinRow), loops * rows
}

// bestProbeWith finds the most selective usable probe into s: an unused
// equality predicate with an indexed candidate on s whose other side is
// fully bound by the placed set extended by source extra (extra < 0 for the
// plain placed set; costOrder's lookahead prices the next level as if the
// current candidate were committed). Returns the candidate with the most
// distinct keys (fewest expected matches).
func bestProbeWith(tables []Table, preds []Pred, used, placed []bool, extra, s int) (pred, cand, keys int) {
	pred, cand, keys = -1, -1, 0
	for pi, p := range preds {
		if used[pi] || p.Class != Eq {
			continue
		}
		for ci, c := range p.Probes {
			if c.Src != s || !boundWith(c.OtherSrcs, placed, extra) {
				continue
			}
			k, ok := tables[s].IndexKeys[c.Col]
			if !ok {
				continue
			}
			if k < 1 {
				k = 1
			}
			if k > keys {
				pred, cand, keys = pi, ci, k
			}
		}
	}
	return pred, cand, keys
}

// selectivity estimates the fraction of rows a predicate retains,
// using distinct-key statistics for equalities on indexed columns.
func selectivity(tables []Table, p Pred) float64 {
	switch p.Class {
	case Eq:
		sel := selEq
		for _, c := range p.Probes {
			if k, ok := tables[c.Src].IndexKeys[c.Col]; ok && k > 0 {
				if s := 1 / float64(k); s < sel {
					sel = s
				}
			}
		}
		return sel
	case NotEq:
		return selNotEq
	default:
		return selRange
	}
}

// estimate annotates each chosen level with cumulative loop, row, and
// cost estimates so EXPLAIN can show them and Choose can total them.
func estimate(tables []Table, preds []Pred, levels []Access, c Costs) {
	loops := 1.0
	for i := range levels {
		lv := &levels[i]
		joinRow := 0.0
		if i > 0 {
			joinRow = c.JoinRow
		}
		rows := float64(tables[lv.Src].Rows)
		lv.EstLoops = loops
		if lv.ProbePred >= 0 {
			cand := preds[lv.ProbePred].Probes[lv.ProbeCand]
			keys := tables[lv.Src].IndexKeys[cand.Col]
			if keys < 1 {
				keys = 1
			}
			matches := rows / float64(keys)
			lv.EstAccess = loops * matches
			lv.EstCost = loops * (c.IndexProbe + matches*joinRow)
		} else {
			lv.EstAccess = loops * rows
			lv.EstCost = loops * rows * (c.ScanRow + joinRow)
		}
		lv.EstOut = lv.EstAccess
		for _, qi := range lv.Residuals {
			lv.EstOut *= selectivity(tables, preds[qi])
		}
		loops = lv.EstOut
		if loops < 1 {
			loops = 1
		}
	}
}

// Order returns the FROM indexes in execution order.
func (r Result) Order() []int {
	out := make([]int, len(r.Levels))
	for i, lv := range r.Levels {
		out[i] = lv.Src
	}
	return out
}

// Covered reports whether every predicate index in [0, n) is assigned
// exactly once across probes, residuals, and constants — a structural
// invariant the tests assert.
func Covered(r Result, n int) bool {
	seen := make([]int, n)
	for _, pi := range r.Consts {
		seen[pi]++
	}
	for _, lv := range r.Levels {
		if lv.ProbePred >= 0 {
			seen[lv.ProbePred]++
		}
		for _, pi := range lv.Residuals {
			seen[pi]++
		}
	}
	for _, c := range seen {
		if c != 1 {
			return false
		}
	}
	return true
}

func allPlaced(srcs []int, placed []bool) bool {
	for _, s := range srcs {
		if !placed[s] {
			return false
		}
	}
	return true
}

// boundWith reports whether srcs ⊆ placed ∪ {extra}.
func boundWith(srcs []int, placed []bool, extra int) bool {
	for _, s := range srcs {
		if s != extra && !placed[s] {
			return false
		}
	}
	return true
}
