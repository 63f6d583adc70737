// Package core implements the STRIP rule system — the paper's primary
// contribution (§2, §6.3, Appendix A).
//
// Rules are SQL3-style triggers extended with STRIP's unique transaction
// facility. A rule names a table and a transition predicate (inserted /
// deleted / updated [columns]); at the end of every transaction the write
// log is scanned, transition tables are built, triggered rules evaluate
// their condition queries inside the triggering transaction, query results
// are bound as temporary tables (`bind as`), and a new task is created to
// run the rule's action — an application-provided function — after an
// optional delay.
//
// If the action is declared `unique`, at most one task per user function
// (and per combination of unique-column values, when `unique on` columns
// are given) is queued at a time: further firings append their bound-table
// rows to the queued task instead of enqueueing new work. This batches
// derived-data recomputation across transaction boundaries, the mechanism
// the paper's experiments evaluate.
package core

import (
	"fmt"

	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/query"
)

// EventKind is a transition-predicate event.
type EventKind uint8

// Transition-predicate events (paper Figure 2).
const (
	Inserted EventKind = iota
	Deleted
	Updated
)

// String names the event.
func (k EventKind) String() string {
	switch k {
	case Inserted:
		return "inserted"
	case Deleted:
		return "deleted"
	case Updated:
		return "updated"
	default:
		return "unknown"
	}
}

// EventSpec is one event of a transition predicate. Columns restricts an
// Updated event to changes of the named columns (empty = any column).
type EventSpec struct {
	Kind    EventKind
	Columns []string
}

// Rule is a STRIP rule definition (paper Figure 2):
//
//	create rule rule-name on t-name
//	   when transition-predicate
//	       [ if condition ]
//	   then
//	       [ evaluate query-commalist ]
//	       execute function-name
//	       [ unique [on column-commalist] ]
//	       [ after time-value ]
type Rule struct {
	Name  string
	Table string
	// Events is the transition predicate (one or more events).
	Events []EventSpec
	// Condition holds the if-clause queries. The condition is true iff
	// every query returns at least one row (vacuously true when empty).
	// Queries with a Bind name have their results passed to the action.
	Condition []*query.Select
	// Evaluate holds queries computed only when the condition is true,
	// to pass additional data to the action (paper §2).
	Evaluate []*query.Select
	// Action names the registered user function the new transaction runs.
	Action string
	// Unique requests unique-transaction batching for the action.
	Unique bool
	// UniqueOn optionally qualifies uniqueness by bound-table columns.
	UniqueOn []string
	// Delay is the `after` clause: release delay for the action task.
	Delay clock.Micros
	// BindCommitTime adds an automatic commit_time column to every bound
	// table, instantiated at bind time with the triggering transaction's
	// commit time, so actions can order changes across transactions.
	BindCommitTime bool

	// BindTransitions names transition tables ("inserted", "deleted",
	// "new", "old") whose rows are copied into the firing's bound tables,
	// so the action receives the raw delta instead of (or in addition to)
	// condition-query results. Unique batching merges the transition rows
	// of every firing that coalesced into the queued task — the merged
	// rows ARE the batch's delta, which is what makes O(|delta|)
	// maintenance plans possible.
	BindTransitions []string

	// Maintenance labels how the action maintains its derived data
	// ("delta", "full", or empty for rules that are not view maintainers).
	// Informational: surfaced through Engine.RuleModes and /debug/rules.
	Maintenance string

	// LockedReads opts the action transaction out of snapshot reads: its
	// queries take S locks held to commit, as in plain transactions. Set it
	// for actions that incrementally read-modify-write database tables
	// (read an aggregate, write the delta back): under snapshot reads two
	// concurrent such actions can read the same pre-image and lose one
	// update. Full recomputes — the normal STRIP action shape — do not need
	// it; ActionContext.QueryLocked is the per-query alternative.
	LockedReads bool

	// Deadline and Value feed the real-time scheduler (EDF / value-density)
	// when the engine runs under those policies.
	Deadline clock.Micros
	Value    float64

	// Firm makes Deadline a firm shedding deadline: under overload the
	// scheduler drops this rule's ready tasks once superseded (a younger
	// task for the same unique key is queued) or past deadline, trading
	// staleness for committed throughput. No effect unless the database
	// enables overload control.
	Firm bool
}

// validate checks rule structure before registration.
func (r *Rule) validate() error {
	if r.Name == "" {
		return fmt.Errorf("core: rule has no name")
	}
	if r.Table == "" {
		return fmt.Errorf("core: rule %s names no table", r.Name)
	}
	if len(r.Events) == 0 {
		return fmt.Errorf("core: rule %s has no transition predicate", r.Name)
	}
	if r.Action == "" {
		return fmt.Errorf("core: rule %s has no action function", r.Name)
	}
	if len(r.UniqueOn) > 0 && !r.Unique {
		return fmt.Errorf("core: rule %s has unique columns without unique", r.Name)
	}
	if r.Delay < 0 {
		return fmt.Errorf("core: rule %s has negative delay", r.Name)
	}
	seen := map[string]bool{}
	for _, q := range append(append([]*query.Select{}, r.Condition...), r.Evaluate...) {
		if q.Bind == "" {
			continue
		}
		if isTransitionName(q.Bind) {
			return fmt.Errorf("core: rule %s binds reserved name %q", r.Name, q.Bind)
		}
		if seen[q.Bind] {
			return fmt.Errorf("core: rule %s binds %q twice", r.Name, q.Bind)
		}
		seen[q.Bind] = true
	}
	for _, n := range r.BindTransitions {
		if !isTransitionName(n) {
			return fmt.Errorf("core: rule %s binds unknown transition table %q", r.Name, n)
		}
		if seen[n] {
			return fmt.Errorf("core: rule %s binds %q twice", r.Name, n)
		}
		seen[n] = true
	}
	if r.Unique && len(r.UniqueOn) > 0 && len(seen) == 0 {
		return fmt.Errorf("core: rule %s is unique on columns but binds no tables", r.Name)
	}
	return nil
}

// transition table names (reserved).
const (
	transInserted = "inserted"
	transDeleted  = "deleted"
	transNew      = "new"
	transOld      = "old"
)

func isTransitionName(n string) bool {
	switch n {
	case transInserted, transDeleted, transNew, transOld:
		return true
	}
	return false
}

// ExecuteOrderCol is the sequence column added to transition tables,
// ordering the tuples changed within the triggering transaction (paper §2).
const ExecuteOrderCol = "execute_order"

// CommitTimeCol is the automatic bound-table timestamp column (paper §2).
const CommitTimeCol = "commit_time"
