// Command graspworker is a GRASP cluster worker node: it benchmarks
// itself, registers with a graspd coordinator, and executes leased
// skeleton tasks until stopped. Run one per machine (or several per
// machine to taste); each process appears to the adaptive engine as one
// grid worker whose speed was calibrated at registration and whose
// round-trip times feed every job's detector.
//
//	graspworker -coordinator http://head:8090 -capacity 4
//
// Its timings come from the coordinator or are constants: it heartbeats
// at the interval the register reply advertises (a third of graspd's
// -dead-after), parks each lease request for at most 2 s (less if the
// coordinator bounds it lower), and times its startup benchmark over
// 2,000,000 spin iterations.
//
// Lifecycle events log through slog (-log-format json|text, -log-level),
// and -debug-addr mounts net/http/pprof plus the worker's /metrics
// (lease round-trip histogram included) on a side listener.
//
// SIGINT/SIGTERM leaves the cluster gracefully so in-flight work is
// reassigned immediately instead of waiting out the heartbeat bound.
package main

import (
	"flag"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"grasp/internal/cluster"
	"grasp/internal/metrics"
	"grasp/internal/olog"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "http://localhost:8090", "coordinator base URL (graspd -cluster-listen)")
		id          = flag.String("id", "", "node id (default <hostname>-<pid>)")
		capacity    = flag.Int("capacity", 2, "concurrent task executions")
		batch       = flag.Int("batch", 0, "cap on tasks pulled per lease (0 = no worker-side cap: leases are chunk-sized, bounded by the coordinator)")
		transport   = flag.String("transport", cluster.TransportBinary, "wire binding for the worker's whole session (binary, json)")
		degradeAt   = flag.Duration("degrade-after", 0, "script a slow-node failure: stretch every execution after this long (0 = healthy forever)")
		degradeBy   = flag.Float64("degrade-factor", 0, "post-degradation execution-time multiplier (0 = 3 when -degrade-after is set; any other value ≤ 1 = no slowdown)")
		logFormat   = flag.String("log-format", "text", "log output format (text, json)")
		logLevel    = flag.String("log-level", "info", "minimum log level (debug, info, warn, error)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof and /metrics on this address (empty = disabled)")
	)
	flag.Parse()

	logger, err := olog.NewStderr(*logFormat, *logLevel)
	if err != nil {
		os.Stderr.WriteString(err.Error() + "\n")
		os.Exit(2)
	}
	reg := metrics.NewRegistry()
	w, err := cluster.StartWorker(cluster.WorkerConfig{
		Coordinator:   *coordinator,
		ID:            *id,
		Capacity:      *capacity,
		Batch:         *batch,
		Transport:     *transport,
		DegradeAfter:  *degradeAt,
		DegradeFactor: *degradeBy,
		Logger:        logger,
		Registry:      reg,
	})
	if err != nil {
		logger.Error("graspworker start failed", "err", err)
		os.Exit(1)
	}
	olog.ServeDebug(*debugAddr, logger.With("node", w.ID()), map[string]http.Handler{
		"/metrics": http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			rw.Write([]byte(reg.RenderProm()))
		}),
	})
	logger.Info("graspworker serving",
		"node", w.ID(), "coordinator", *coordinator,
		"speed_ops", w.SpeedOPS(), "transport", w.TransportName())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("graspworker leaving", "node", w.ID())
	w.Stop()
}
