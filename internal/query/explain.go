package query

import (
	"fmt"
	"strings"
)

// PlanNode is one operator of an executed physical plan, for EXPLAIN
// surfaces: the planner's estimated row count next to the rows the
// operator actually produced during the run.
type PlanNode struct {
	Op       string
	Detail   string
	EstRows  float64
	ActRows  int64
	Children []*PlanNode
}

// explainNode assembles the plan tree after a run: the streamed pipeline
// rebuilt from the levels' counters (explainTree), below the post-pass
// operators (sort, limit). sorted is the row count entering the limit
// (after any sort).
func (ex *exec) explainNode(sorted int) *PlanNode {
	n := ex.explainTree()
	if len(ex.q.OrderBy) > 0 {
		detail := strings.Join(ex.q.OrderBy, ", ")
		if ex.q.Desc {
			detail += " desc"
		}
		n = &PlanNode{
			Op:       "sort",
			Detail:   detail,
			EstRows:  n.EstRows,
			ActRows:  int64(sorted),
			Children: []*PlanNode{n},
		}
	}
	if ex.q.Limit > 0 {
		est := n.EstRows
		if lim := float64(ex.q.Limit); lim < est {
			est = lim
		}
		n = &PlanNode{
			Op:       "limit",
			Detail:   fmt.Sprint(ex.q.Limit),
			EstRows:  est,
			ActRows:  int64(min(sorted, ex.q.Limit)),
			Children: []*PlanNode{n},
		}
	}
	return n
}

// explainTree renders the run's levels as the operator tree they execute: a
// left-deep chain of nested-loop joins over scan and probe leaves (each under
// a filter when residual predicates apply), topped by the project or
// aggregate sink. A leaf counts each row it yielded, a filter and a join
// each row that passed their level, the sink each row it put out.
func (ex *exec) explainTree() *PlanNode {
	var root *PlanNode
	for pos := range ex.c.levels {
		lp, lv := &ex.c.levels[pos], &ex.lv[pos]
		s := ex.srcs[lp.src]
		n := &PlanNode{Op: "scan", EstRows: lp.estAccess, ActRows: lv.rows}
		if lp.probe != nil {
			n.Op = "probe"
			n.Detail = fmt.Sprintf("%s.%s = %s", s.name, lp.probe.col, ex.text(lp.probe.expr))
		} else if lv.mode == "" {
			n.Detail = s.name + " unopened"
		} else {
			n.Detail = s.name + " " + lv.mode
		}
		if len(lp.resid) > 0 {
			parts := make([]string, len(lp.resid))
			for i, p := range lp.resid {
				parts[i] = fmt.Sprintf("%s %s %s", ex.text(p.Left), p.Op, ex.text(p.Right))
			}
			n = &PlanNode{Op: "filter", Detail: strings.Join(parts, " and "),
				EstRows: lp.estOut, ActRows: lv.passed, Children: []*PlanNode{n}}
		}
		if root != nil {
			n = &PlanNode{Op: "join", Detail: "nested loop",
				EstRows: lp.estOut, ActRows: lv.passed, Children: []*PlanNode{root, n}}
		}
		root = n
	}
	sink := &PlanNode{Op: "project", Detail: ex.itemList(), EstRows: ex.c.estRows,
		ActRows: ex.matched, Children: []*PlanNode{root}}
	if ex.c.agg {
		sink.Op, sink.ActRows = "aggregate", int64(ex.groups.n)
		if len(ex.q.GroupBy) > 0 {
			parts := make([]string, len(ex.q.GroupBy))
			for i, g := range ex.q.GroupBy {
				parts[i] = g.String()
			}
			sink.Detail += " group by " + strings.Join(parts, ", ")
		}
	}
	return sink
}

// Format renders the plan tree as indented text, one operator per line:
//
//	project id, name (est=12 act=9)
//	  join nested loop (est=12 act=9)
//	    scan stocks locked (est=2000 act=2000)
//	    probe trades.symbol = stocks.symbol (est=10 act=9)
func (n *PlanNode) Format() string {
	var b strings.Builder
	n.format(&b, 0)
	return b.String()
}

func (n *PlanNode) format(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(n.Op)
	if n.Detail != "" {
		b.WriteString(" ")
		b.WriteString(n.Detail)
	}
	fmt.Fprintf(b, " (est=%s act=%d)\n", fmtEst(n.EstRows), n.ActRows)
	for _, c := range n.Children {
		c.format(b, depth+1)
	}
}

// Lines flattens the rendered plan for row-per-line surfaces (db.Exec).
func (n *PlanNode) Lines() []string {
	return strings.Split(strings.TrimRight(n.Format(), "\n"), "\n")
}

func fmtEst(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.1f", v)
}
