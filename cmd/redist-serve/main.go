// Command redist-serve runs the long-lived scheduling daemon: it accepts
// streaming MsgSolveReq and MsgDeltaReq frames over TCP (wire protocol v2,
// DESIGN.md §10) from many tenants, runs each solve and each delta repair
// on a bounded solver pool, and answers with MsgSolveResp schedules or
// MsgReject refusals.
//
//	redist-serve -addr :9090 -workers 4 -tenant-rate 50
//	REDIST_SERVE_ADDR=:9090 REDIST_SERVE_TENANT_RATE=50 redist-serve
//
// Every flag has a REDIST_SERVE_* environment fallback (flags win), so
// the daemon drops into env-configured process supervisors unchanged.
// SIGINT/SIGTERM trigger a graceful shutdown: admission stops, in-flight
// requests drain (bounded by -drain-timeout), then sessions close.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"redistgo"
	"redistgo/internal/obsflag"
	"redistgo/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "redist-serve:", err)
		os.Exit(1)
	}
}

// envOr returns the environment fallback for a flag default: the value of
// REDIST_SERVE_<key> when set, else def.
func envOr(key, def string) string {
	if v, ok := os.LookupEnv("REDIST_SERVE_" + key); ok {
		return v
	}
	return def
}

func envOrInt(key string, def int) int {
	v, err := strconv.Atoi(envOr(key, strconv.Itoa(def)))
	if err != nil {
		return def
	}
	return v
}

func envOrFloat(key string, def float64) float64 {
	v, err := strconv.ParseFloat(envOr(key, strconv.FormatFloat(def, 'g', -1, 64)), 64)
	if err != nil {
		return def
	}
	return v
}

// parseLogLevel maps the -log-level flag value onto a slog.Level.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("redist-serve", flag.ContinueOnError)
	addr := fs.String("addr", envOr("ADDR", "127.0.0.1:0"), "TCP listen address (env REDIST_SERVE_ADDR)")
	workers := fs.Int("workers", envOrInt("WORKERS", 0), "solver pool size, shared by solves and deltas; 0 means GOMAXPROCS (env REDIST_SERVE_WORKERS)")
	queueDepth := fs.Int("queue-depth", envOrInt("QUEUE_DEPTH", 0), "admitted solves and deltas that may wait for a worker; 0 means 2x workers (env REDIST_SERVE_QUEUE_DEPTH)")
	maxSessions := fs.Int("max-sessions", envOrInt("MAX_SESSIONS", 0), "concurrent client sessions; 0 means unlimited (env REDIST_SERVE_MAX_SESSIONS)")
	globalRate := fs.Float64("global-rate", envOrFloat("GLOBAL_RATE", 0), "service-wide admission, requests/s; 0 disables (env REDIST_SERVE_GLOBAL_RATE)")
	globalBurst := fs.Float64("global-burst", envOrFloat("GLOBAL_BURST", 0), "service-wide admission burst; 0 means one second of rate (env REDIST_SERVE_GLOBAL_BURST)")
	tenantRate := fs.Float64("tenant-rate", envOrFloat("TENANT_RATE", 0), "per-tenant admission, requests/s; 0 disables (env REDIST_SERVE_TENANT_RATE)")
	tenantBurst := fs.Float64("tenant-burst", envOrFloat("TENANT_BURST", 0), "per-tenant admission burst; 0 means one second of rate (env REDIST_SERVE_TENANT_BURST)")
	maxNodes := fs.Int("max-nodes", envOrInt("MAX_NODES", 0), "cap on each side of a requested instance; 0 keeps the codec bound only (env REDIST_SERVE_MAX_NODES)")
	shard := fs.String("shard", envOr("SHARD", "auto"), "component sharding for served solves: off or auto (env REDIST_SERVE_SHARD)")
	cacheSize := fs.Int("cache-size", envOrInt("CACHE_SIZE", 0), "retained solves in the content-addressed cache; 0 disables (env REDIST_SERVE_CACHE_SIZE)")
	maxBases := fs.Int("max-bases", envOrInt("MAX_BASES", 0), "delta base chains retained per session; 0 means 4 (env REDIST_SERVE_MAX_BASES)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight solves before closing sessions")
	logLevel := fs.String("log-level", envOr("LOG_LEVEL", "info"), "structured log verbosity: debug, info, warn or error (env REDIST_SERVE_LOG_LEVEL)")
	obsFlags := obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	lvl, err := parseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewTextHandler(stdout, &slog.HandlerOptions{Level: lvl}))
	observer, obsFinish, err := obsFlags.Start(stdout)
	if err != nil {
		return err
	}
	defer func() {
		if ferr := obsFinish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	shardMode, err := redistgo.ParseShardMode(*shard)
	if err != nil {
		return err
	}

	srv, err := serve.New(serve.Config{
		Addr:        *addr,
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		MaxSessions: *maxSessions,
		GlobalRate:  *globalRate,
		GlobalBurst: *globalBurst,
		TenantRate:  *tenantRate,
		TenantBurst: *tenantBurst,
		MaxNodes:    *maxNodes,
		Shard:       shardMode,
		CacheSize:   *cacheSize,
		MaxBases:    *maxBases,
		Obs:         observer,
		Log:         logger,
	})
	if err != nil {
		return err
	}
	obsFlags.SetReady(true)
	fmt.Fprintf(stdout, "redist-serve listening on %s\n", srv.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // a second signal kills immediately instead of re-draining

	fmt.Fprintf(stdout, "redist-serve draining (up to %s)...\n", *drainTimeout)
	obsFlags.SetReady(false)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(stdout, "redist-serve stopped cleanly")
	return nil
}
