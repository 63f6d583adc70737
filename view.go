package strip

import (
	"fmt"

	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/viewgen"
)

// ViewMode selects how a materialized view is maintained.
type ViewMode = viewgen.Mode

// View maintenance modes.
const (
	// ViewModeAuto maintains the view from transition-table deltas when
	// the needed indexes exist, else falls back to full recomputation.
	ViewModeAuto = viewgen.ModeAuto
	// ViewModeDelta requires O(|delta|) maintenance; creation fails if a
	// needed index is missing.
	ViewModeDelta = viewgen.ModeDelta
	// ViewModeFull rebuilds the view from its defining query on every
	// maintenance run — the O(|base|) baseline.
	ViewModeFull = viewgen.ModeFull
)

// ViewOptions tunes materialized-view creation. Zero values get estimates.
type ViewOptions struct {
	// UpdateRate is the expected base-table update rate (updates/second);
	// it feeds the delay-window advisor. Defaults to 30/s (the paper's
	// trace average) when zero.
	UpdateRate float64
	// MaxStaleness bounds the advised delay window (micros). Defaults to
	// 3 s, the knee of the paper's delay sweep.
	MaxStaleness int64
	// Mode selects delta vs full maintenance; the zero value is
	// ViewModeAuto.
	Mode ViewMode
}

// ViewInfo reports what CreateMaterializedView generated.
type ViewInfo struct {
	Name string
	// RuleName is the generated maintenance rule.
	RuleName string
	// Action is the generated user function's name.
	Action string
	// Maintenance is the resolved maintenance mode ("delta" or "full").
	Maintenance string
	// UniqueOn and DelayMicros are the advisor's batching choices.
	UniqueOn    []string
	DelayMicros int64
	// Reason documents the advisor's choice.
	Reason string
	// Rows is the initial materialized row count.
	Rows int
}

// CreateMaterializedView materializes a view definition and generates its
// maintenance rule automatically — including the unit of batching, the
// delay window, and the maintenance mode — implementing the paper's §8
// future-work proposal. The definition must be one of the two supported
// shapes (see package viewgen): a grouped sum over a two-table equi-join,
// or a per-row scalar function over one.
//
// Under ViewModeAuto (the default) the maintenance rule applies
// transition-table deltas to the view in O(|delta|) per firing when every
// index in spec.DeltaRequirements exists, and rebuilds the view wholesale
// otherwise. Aggregation views maintained this way carry an extra
// support-count column (viewgen.CountColumn).
func (db *DB) CreateMaterializedView(name string, def *Select, opts ViewOptions) (*ViewInfo, error) {
	if err := db.writable("create view"); err != nil {
		return nil, err
	}
	spec, err := viewgen.Analyze(db.txns.Catalog, name, def)
	if err != nil {
		return nil, err
	}
	schema, err := spec.ViewSchema(db.txns.Catalog)
	if err != nil {
		return nil, err
	}

	// Resolve the maintenance mode against the indexes that exist now.
	mode := opts.Mode
	if mode != viewgen.ModeFull {
		missing := ""
		for _, req := range spec.DeltaRequirements() {
			tbl, ok := db.txns.Store.Get(req.Table)
			if !ok || !tbl.HasIndex(req.Col) {
				missing = fmt.Sprintf("%s(%s)", req.Table, req.Col)
				break
			}
		}
		switch {
		case missing == "":
			mode = viewgen.ModeDelta
		case mode == viewgen.ModeDelta:
			return nil, fmt.Errorf("strip: view %s: delta maintenance needs an index on %s", name, missing)
		default: // ModeAuto without the indexes: fall back silently.
			mode = viewgen.ModeFull
		}
	}

	// Materialize from the canonical load query — the same query the full
	// maintenance path replays — so the initial contents and every rebuild
	// agree on shape (including the aggregation support count).
	tx := db.Begin()
	var loaded query.RowSlice
	if err := spec.LoadQuery().RunTo(tx, query.TxnResolver{}, nil, &loaded); err != nil {
		tx.Abort() //nolint:errcheck
		return nil, err
	}
	rows := loaded.Rows()
	if err := tx.Commit(); err != nil {
		return nil, err
	}

	// The view is an ordinary logged table: its DDL, its index and its
	// initial rows go through the write-ahead log like the maintenance
	// commits that follow, so recovery and a standby replay all of them.
	if err := db.defineTable(schema); err != nil {
		return nil, err
	}
	load := func() error {
		if err := db.CreateIndex(name, spec.KeyColumn(), "hash"); err != nil {
			return err
		}
		tx := db.Begin()
		for _, row := range rows {
			if _, err := tx.Insert(name, row); err != nil {
				tx.Abort() //nolint:errcheck
				return err
			}
		}
		return tx.Commit()
	}
	if err := load(); err != nil {
		db.DropTable(name) //nolint:errcheck // best-effort unwind, as in CreateTable
		return nil, err
	}

	// Advise batching from data statistics plus caller-provided rates.
	if opts.UpdateRate <= 0 {
		opts.UpdateRate = 30
	}
	if opts.MaxStaleness <= 0 {
		opts.MaxStaleness = 3_000_000
	}
	baseTbl, _ := db.txns.Store.Get(spec.Base())
	dimTbl, _ := db.txns.Store.Get(spec.Dim())
	fanOut := 1.0
	if baseTbl != nil && dimTbl != nil && baseTbl.Len() > 0 {
		fanOut = float64(dimTbl.Len()) / float64(baseTbl.Len())
	}
	adv := spec.Advise(viewgen.Stats{
		UpdateRate:   opts.UpdateRate,
		FanOut:       fanOut,
		Groups:       len(rows),
		MaxStaleness: opts.MaxStaleness,
	})

	action := "maintain_" + name + "_fn"
	rule, fn, err := spec.MaintenanceRule(action, adv, mode, db.obs)
	if err != nil {
		return nil, err
	}
	if err := db.RegisterFunc(action, fn); err != nil {
		return nil, err
	}
	if err := db.CreateRule(rule); err != nil {
		return nil, err
	}
	return &ViewInfo{
		Name:        name,
		RuleName:    rule.Name,
		Action:      action,
		Maintenance: rule.Maintenance,
		UniqueOn:    adv.UniqueOn,
		DelayMicros: adv.Delay,
		Reason:      adv.Reason,
		Rows:        len(rows),
	}, nil
}

// viewInfoString renders ViewInfo for logs.
func (vi *ViewInfo) String() string {
	return fmt.Sprintf("view %s: %d rows, %s maintenance, rule %s after %.1fs (%s)",
		vi.Name, vi.Rows, vi.Maintenance, vi.RuleName, float64(vi.DelayMicros)/1e6, vi.Reason)
}
