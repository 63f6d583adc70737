// Command strip-cli is an interactive shell over an in-process STRIP
// engine: type SQL (including CREATE RULE) and inspect rule activity.
//
// Because rule actions are Go functions, the CLI registers a generic
// `print_changes` action that dumps its bound tables, so rule batching can
// be explored interactively:
//
//	strip> create table t (k text, v float)
//	strip> create rule r on t when inserted
//	       if select * from inserted bind as rows
//	       then execute print_changes unique after 1 seconds
//	strip> insert into t values ('a', 1)
//	strip> insert into t values ('b', 2)
//	...
//	[print_changes] rows: 2 row(s)
//
// With -data <dir> the session is durable: every commit reaches a
// write-ahead log before it is acknowledged, \checkpoint snapshots the
// database, and restarting with the same -data restores tables, indexes,
// and catalog.
//
// Meta commands: \tables, \stats <function>, \metrics [json], \trace [n],
// \profile, \span <traceID>, \checkpoint, \wal, \quit. With -monitor
// <addr> the stripmon HTTP surface (/metrics, /debug/trace, /debug/rules,
// /debug/pprof) serves the same session.
//
// With -connect <host:port> the shell instead speaks the stripd wire
// protocol to a remote server: SQL statements travel as QUERY/EXEC frames,
// and \begin, \commit, \abort control the session's interactive
// transaction (idle transactions are reaped server-side). -token and
// -tenant set the handshake credentials.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	strip "github.com/stripdb/strip"
	"github.com/stripdb/strip/client"
)

func main() {
	dataDir := flag.String("data", "", "durable data directory (WAL + snapshots); empty keeps the session in-memory")
	monitor := flag.String("monitor", "", "stripmon HTTP listen address (e.g. :9620); empty disables")
	connect := flag.String("connect", "", "remote stripd address (host:port); empty runs an in-process engine")
	token := flag.String("token", "", "auth token for -connect (and -replica-of)")
	tenant := flag.String("tenant", "", "tenant name for -connect (and -replica-of)")
	replicaOf := flag.String("replica-of", "", "replicate the in-process engine from the primary stripd at this address (read-only; requires -data)")
	flag.Parse()

	if *connect != "" {
		remoteShell(*connect, *token, *tenant)
		return
	}

	db, err := strip.Open(strip.Config{
		Workers:     2,
		DataDir:     *dataDir,
		MonitorAddr: *monitor,
		ReplicaOf:   *replicaOf,
		Repl:        strip.ReplOptions{AuthToken: *token, Tenant: *tenant},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "strip-cli:", err)
		os.Exit(1)
	}
	defer db.Close()
	if addr := db.MonitorAddr(); addr != "" {
		fmt.Printf("stripmon listening on http://%s (metrics, debug/trace, debug/rules, debug/pprof)\n", addr)
	}
	if *dataDir != "" {
		r := db.LastRecovery()
		fmt.Printf("recovered %s: %d table(s), %d row(s) from snapshot; %d txn(s) replayed from log in %d µs\n",
			*dataDir, r.SnapshotTables, r.SnapshotRows, r.ReplayedTxns, r.DurationMicros)
	}

	if err := db.RegisterFunc("print_changes", func(ctx *strip.ActionContext) error {
		for _, name := range ctx.BoundNames() {
			tt, _ := ctx.Bound(name)
			fmt.Printf("[print_changes] %s: %d row(s)\n", name, tt.Len())
			for i := 0; i < tt.Len() && i < 10; i++ {
				fmt.Printf("  %v\n", tt.Row(i))
			}
		}
		return nil
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println("STRIP shell — SQL statements end at newline; \\help for meta commands.")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("strip> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return
		case line == `\help`:
			fmt.Println(`meta commands:
  \tables            list tables
  \stats <function>  rule activity counters (incl. pending unique txns)
  \explain <select>  run the query and show its physical plan (est vs actual rows)
  \metrics [json]    engine metrics snapshot (text, or JSON)
  \trace [n]         recent engine trace events (default 20)
  \profile           per-rule cost profiles (eval time, rows, lock wait, SLO)
  \span <traceID>    causal chain for one triggering transaction id
  \checkpoint        force a snapshot and truncate the write-ahead log
  \wal               write-ahead log status (size, fsyncs, last recovery)
  \repl              replication status (replica engines; see -replica-of)
  \promote           promote this replica to a writable primary (failover)
  \quit`)
			continue
		case line == `\repl`:
			st, ok := db.ReplStatus()
			if !ok {
				fmt.Println("not a replica (start with -replica-of <addr>)")
				continue
			}
			fmt.Printf("  primary       %s (connected=%v resyncing=%v fenced=%v promoted=%v)\n",
				st.Primary, st.Connected, st.Resyncing, st.Fenced, st.Promoted)
			fmt.Printf("  epoch         %d\n", st.Epoch)
			fmt.Printf("  applied lsn   %d (primary %d, lag %d records)\n", st.AppliedLSN, st.PrimaryLSN, st.LagLSN)
			fmt.Printf("  durable lsn   %d (fsynced in this replica's own log)\n", st.DurableLSN)
			if st.LagMicros >= 0 {
				fmt.Printf("  lag           %d µs\n", st.LagMicros)
			} else {
				fmt.Println("  lag           unknown (no batch received yet)")
			}
			fmt.Printf("  reconnects    %d, resyncs %d\n", st.Reconnects, st.Resyncs)
			if st.LastError != "" {
				fmt.Printf("  last error    %s\n", st.LastError)
			}
			continue
		case line == `\promote`:
			epoch, err := db.Promote()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("promoted to primary at fencing epoch %d; writes accepted\n", epoch)
			continue
		case line == `\checkpoint`:
			if err := db.Checkpoint(); err != nil {
				fmt.Println("error:", err)
				continue
			}
			info, _ := db.WalInfo()
			fmt.Printf("checkpoint ok (log truncated to %d bytes)\n", info.LogBytes)
			continue
		case line == `\wal`:
			info, ok := db.WalInfo()
			if !ok {
				fmt.Println("durability disabled (start with -data <dir>)")
				continue
			}
			fmt.Printf("  data dir      %s\n", info.Dir)
			fmt.Printf("  log size      %d bytes (next LSN %d)\n", info.LogBytes, info.NextLSN)
			fmt.Printf("  appends       %d records, %d fsyncs, %d checkpoint(s)\n",
				info.Appends, info.Fsyncs, info.Checkpoints)
			if info.GroupBatch.Count > 0 {
				fmt.Printf("  group commit  batch p50=%d p95=%d max=%d; fsync p50=%dµs p95=%dµs\n",
					info.GroupBatch.P50, info.GroupBatch.P95, info.GroupBatch.Max,
					info.FsyncMicros.P50, info.FsyncMicros.P95)
				fmt.Printf("                %d linger(s), %d futile, p50=%dµs max=%dµs; next batch expected to hold %d\n",
					info.Lingers, info.LingersFutile, info.LingerMicros.P50, info.LingerMicros.Max, info.ExpectedCohort)
			}
			r := info.Recovery
			fmt.Printf("  last recovery snapshot lsn=%d (%d tables, %d rows), %d txn(s)/%d op(s) replayed, torn_tail=%v, %d µs\n",
				r.SnapshotLSN, r.SnapshotTables, r.SnapshotRows, r.ReplayedTxns, r.ReplayedOps, r.TornTail, r.DurationMicros)
			continue
		case line == `\tables`:
			for _, name := range db.Txns().Catalog.Names() {
				schema, _ := db.Txns().Catalog.Lookup(name)
				cols := make([]string, schema.NumCols())
				for i := range cols {
					c := schema.Col(i)
					cols[i] = c.Name + " " + c.Kind.String()
				}
				fmt.Printf("  %s (%s)\n", name, strings.Join(cols, ", "))
			}
			continue
		case strings.HasPrefix(line, `\explain`):
			sql := strings.TrimSpace(strings.TrimPrefix(line, `\explain`))
			if sql == "" {
				fmt.Println("error: \\explain takes a SELECT statement")
				continue
			}
			text, err := db.Explain(sql)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(text)
			continue
		case strings.HasPrefix(line, `\metrics`):
			arg := strings.TrimSpace(strings.TrimPrefix(line, `\metrics`))
			if err := db.WriteMetrics(os.Stdout, arg == "json"); err != nil {
				fmt.Println("error:", err)
			}
			continue
		case strings.HasPrefix(line, `\trace`):
			n := 20
			if arg := strings.TrimSpace(strings.TrimPrefix(line, `\trace`)); arg != "" {
				v, err := strconv.Atoi(arg)
				if err != nil {
					fmt.Println("error: \\trace takes an event count")
					continue
				}
				n = v
			}
			evs := db.Trace(n)
			for _, ev := range evs {
				fmt.Printf("  %10d  %-13s %-24s %d\n", ev.At, ev.Kind, ev.Name, ev.Arg)
			}
			fmt.Printf("(%d events)\n", len(evs))
			continue
		case line == `\profile`:
			profiles := db.RuleProfiles()
			if len(profiles) == 0 {
				fmt.Println("(no rules have been created)")
				continue
			}
			fmt.Printf("  %-16s %8s %8s %10s %10s %9s %9s %9s %10s %8s %8s %8s\n",
				"function", "fired", "merged", "evalq", "eval_µs", "scanned", "matched", "written", "lockw_µs", "stale_p95", "slo_miss", "shed")
			for _, p := range profiles {
				fmt.Printf("  %-16s %8d %8d %10d %10d %9d %9d %9d %10d %8d %8d %8d\n",
					p.Function, p.Fired, p.TasksMerged, p.EvalQueries, p.EvalMicros,
					p.RowsScanned, p.RowsMatched, p.RowsWritten, p.LockWaitMicros,
					p.Staleness.P95, p.SLOBreaches, p.TasksShed)
				if p.DeadlineMicros > 0 {
					fmt.Printf("  %-16s deadline=%dµs staleness p50=%d p95=%d p99=%d max=%d\n",
						"", p.DeadlineMicros, p.Staleness.P50, p.Staleness.P95, p.Staleness.P99, p.Staleness.Max)
				}
			}
			continue
		case strings.HasPrefix(line, `\span`):
			arg := strings.TrimSpace(strings.TrimPrefix(line, `\span`))
			id, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || id == 0 {
				fmt.Println("error: \\span takes a triggering transaction id (see \\trace txn.commit events)")
				continue
			}
			evs := db.Span(id)
			if len(evs) == 0 {
				fmt.Printf("(no retained events for trace %d — the ring may have wrapped)\n", id)
				continue
			}
			for _, ev := range evs {
				marker := "  "
				if ev.Trace != id {
					marker = "+ " // cross-linked from another chain (merge)
				}
				name := ev.Name
				if name == "" {
					name = fmt.Sprintf("txn %d", ev.Arg)
				}
				fmt.Printf("  %s%10dµs  %-14s %-24s arg=%-8d parent=%d\n",
					marker, ev.At, ev.Kind, name, ev.Arg, ev.Parent)
			}
			fmt.Printf("(%d events in chain %d)\n", len(evs), id)
			continue
		case strings.HasPrefix(line, `\stats`):
			fn := strings.TrimSpace(strings.TrimPrefix(line, `\stats`))
			st := db.Stats(fn)
			fmt.Printf("  fired=%d created=%d merged=%d run=%d errors=%d pending=%d\n",
				st.Fired, st.TasksCreated, st.TasksMerged, st.TasksRun, st.TaskErrors,
				db.Engine().PendingUnique(fn))
			continue
		}
		res, err := db.Exec(line)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		switch {
		case res.Rows != nil:
			fmt.Println(strings.Join(res.Columns, " | "))
			for _, row := range res.Rows {
				parts := make([]string, len(row))
				for i, v := range row {
					parts[i] = v.String()
				}
				fmt.Println(strings.Join(parts, " | "))
			}
			fmt.Printf("(%d rows)\n", len(res.Rows))
		case res.Affected > 0:
			fmt.Printf("ok (%d rows)\n", res.Affected)
		default:
			fmt.Println("ok")
		}
	}
}

// remoteShell is the -connect REPL: the same SQL surface, executed over
// the stripd wire protocol instead of an in-process engine.
func remoteShell(addr, token, tenant string) {
	c, err := client.Dial(addr, client.Options{Token: token, Tenant: tenant})
	if err != nil {
		fmt.Fprintln(os.Stderr, "strip-cli:", err)
		os.Exit(1)
	}
	defer c.Close()
	fmt.Printf("connected to stripd at %s (session %d)\n", addr, c.SessionID())
	fmt.Println(`STRIP remote shell — SQL statements end at newline; \help for meta commands.`)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("strip> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return
		case line == `\help`:
			fmt.Println(`meta commands:
  \begin     open the session's interactive transaction
  \commit    commit it
  \abort     abort it
  \ping      round-trip liveness check
  \quit
SQL statements run as QUERY (select) or EXEC (everything else) frames.`)
			continue
		case line == `\begin`:
			reportRemote(c.Begin())
			continue
		case line == `\commit`:
			reportRemote(c.Commit())
			continue
		case line == `\abort`:
			reportRemote(c.Abort())
			continue
		case line == `\ping`:
			reportRemote(c.Ping())
			continue
		case strings.HasPrefix(line, `\`):
			fmt.Println("error: unknown meta command (remote mode; \\help)")
			continue
		}
		var res *client.Result
		if strings.HasPrefix(strings.ToLower(line), "select") {
			res, err = c.Query(line)
		} else {
			res, err = c.Exec(line)
		}
		if err != nil {
			fmt.Println("error:", err)
			if strip.IsRetryable(err) {
				fmt.Println("(transient: safe to retry)")
			}
			continue
		}
		switch {
		case res.Columns != nil:
			fmt.Println(strings.Join(res.Columns, " | "))
			for _, row := range res.Rows {
				parts := make([]string, len(row))
				for i, v := range row {
					parts[i] = v.String()
				}
				fmt.Println(strings.Join(parts, " | "))
			}
			fmt.Printf("(%d rows)\n", len(res.Rows))
		case res.Affected > 0:
			fmt.Printf("ok (%d rows)\n", res.Affected)
		default:
			fmt.Println("ok")
		}
	}
}

func reportRemote(err error) {
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("ok")
}
