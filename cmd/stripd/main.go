// Command stripd runs a standalone STRIP network server: an engine opened
// with Config.ListenAddr, serving the binary wire protocol to package
// client (and strip-cli -connect), with stripmon on the side for
// observability.
//
//	stripd -listen :9629 -monitor :9620 -data /var/lib/strip
//
// Clients get per-session interactive transactions with idle reaping and
// admission control (connection caps, per-tenant in-flight limits, and —
// with -shed-depth — shedding on engine saturation).
//
// With -replica-of the engine instead runs as a warm-standby replica: it
// streams the primary's WAL, replays it continuously, and serves read-only
// queries at its applied LSN (writes are refused with the replica code).
// SIGUSR1 promotes it to a standalone writable primary, stamping a fencing
// epoch that rejects the deposed primary.
//
// SIGINT/SIGTERM drain gracefully: new work is rejected with the
// shutting-down code while in-flight session transactions commit or abort,
// then the engine closes (flushing the WAL when -data is set).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	strip "github.com/stripdb/strip"
)

func main() {
	listen := flag.String("listen", ":9629", "wire-protocol listen address")
	monitor := flag.String("monitor", "", "stripmon HTTP listen address (e.g. :9620); empty disables")
	dataDir := flag.String("data", "", "durable data directory (WAL + snapshots); empty keeps the engine in-memory")
	workers := flag.Int("workers", 4, "rule-engine worker pool size")
	auth := flag.String("auth", "", "require this auth token from every client handshake")
	maxConns := flag.Int("max-conns", 0, "concurrent session cap (0 = default 256)")
	maxInflight := flag.Int("max-inflight", 0, "global concurrent statement cap (0 = default 64)")
	tenantInflight := flag.Int("tenant-inflight", 0, "per-tenant concurrent statement cap (0 = global cap)")
	idleTxn := flag.Duration("idle-txn", 30*time.Second, "abort interactive transactions idle this long (releases their locks)")
	shedDepth := flag.Int("shed-depth", 0, "engine ready-queue depth past which admission control sheds (0 disables)")
	drain := flag.Duration("drain", 5*time.Second, "shutdown drain window for in-flight session transactions")
	replicaOf := flag.String("replica-of", "", "run as a read-only replica of the primary stripd at this address (requires -data); SIGUSR1 promotes")
	replicaToken := flag.String("replica-token", "", "auth token presented to the primary (default: the -auth token)")
	flag.Parse()

	replToken := *replicaToken
	if replToken == "" {
		replToken = *auth
	}
	db, err := strip.Open(strip.Config{
		Workers:     *workers,
		DataDir:     *dataDir,
		MonitorAddr: *monitor,
		ListenAddr:  *listen,
		Overload:    strip.OverloadPolicy{ShedDepth: *shedDepth},
		ReplicaOf:   *replicaOf,
		Repl:        strip.ReplOptions{AuthToken: replToken},
		Serve: strip.ServeOptions{
			AuthToken:      *auth,
			MaxConns:       *maxConns,
			MaxInflight:    *maxInflight,
			TenantInflight: *tenantInflight,
			IdleTxnTimeout: *idleTxn,
			DrainTimeout:   *drain,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stripd:", err)
		os.Exit(1)
	}

	// The same generic rule action the interactive shell registers, so SQL
	// rule definitions work against a remote server too.
	if err := db.RegisterFunc("print_changes", func(ctx *strip.ActionContext) error {
		for _, name := range ctx.BoundNames() {
			tt, _ := ctx.Bound(name)
			fmt.Printf("[print_changes] %s: %d row(s)\n", name, tt.Len())
		}
		return nil
	}); err != nil {
		fmt.Fprintln(os.Stderr, "stripd:", err)
		os.Exit(1)
	}

	fmt.Printf("stripd serving on %s\n", db.ServerAddr())
	if addr := db.MonitorAddr(); addr != "" {
		fmt.Printf("stripmon listening on http://%s (metrics, debug/trace, debug/rules, debug/sessions)\n", addr)
	}
	if *dataDir != "" {
		r := db.LastRecovery()
		fmt.Printf("recovered %s: %d table(s), %d row(s) from snapshot; %d txn(s) replayed\n",
			*dataDir, r.SnapshotTables, r.SnapshotRows, r.ReplayedTxns)
	}

	if *replicaOf != "" {
		fmt.Printf("replicating from %s (read-only; SIGUSR1 promotes)\n", *replicaOf)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGUSR1)
	var s os.Signal
	for s = range sig {
		if s != syscall.SIGUSR1 {
			break
		}
		// Failover: promote this replica to a standalone writable primary.
		// The bumped fencing epoch rejects the deposed primary if it comes
		// back.
		epoch, err := db.Promote()
		if err != nil {
			fmt.Fprintln(os.Stderr, "stripd: promote:", err)
			continue
		}
		fmt.Printf("stripd: promoted to primary at fencing epoch %d\n", epoch)
	}
	fmt.Printf("stripd: %v — draining sessions and closing\n", s)
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "stripd: close:", err)
		os.Exit(1)
	}
}
