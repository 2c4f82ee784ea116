// Command graspd is the GRASP streaming daemon: it serves the adaptive
// structured-parallelism skeletons (farm, pipeline, dmap) as a
// long-running HTTP service. Clients create named jobs declaring a
// skeleton, stream tasks into them under backpressure, and poll results
// through the same cursor endpoints regardless of topology, while the
// service calibrates once, feeds the one ranking to every skeleton type,
// installs per-job thresholds from warm-up traffic, and recalibrates live
// on detector breaches — Algorithm 2's feedback loop, kept running
// forever.
//
// Serve:
//
//	graspd -addr :8080 -workers 8
//
// Every per-job parameter — window, warm-up, threshold factor, result
// retention, share, adaptation policy — is set in the job's create body.
//
// Serve with the distributed worker-node subsystem enabled (graspworker
// processes register on the cluster listener; jobs created with
// `"placement": "cluster"` execute on them):
//
//	graspd -addr :8080 -cluster-listen :8090
//
// A silent node is declared dead after -dead-after (default 3s, at least
// 3ms); workers heartbeat at the third of it the coordinator advertises.
//
// See the README for the full JSON API, the cluster quickstart, and a curl
// walkthrough.
package main

import (
	"flag"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"grasp/internal/cluster"
	"grasp/internal/olog"
	"grasp/internal/service"
)

// openDaemon wires the service and its handler stack; tests drive exactly
// this function through httptest. With a DataDir set it replays the
// journal (recovering jobs and the cluster registry) before any handler
// exists, so no request can observe pre-recovery state.
func openDaemon(cfg service.Config) (http.Handler, *service.Service, error) {
	s, err := service.Open(cfg)
	if err != nil {
		return nil, nil, err
	}
	return service.NewHandler(s), s, nil
}

// shutdownOnSignal blocks until a signal arrives, then performs the
// graceful shutdown: Close flushes a final snapshot and fsyncs the
// journal, so a SIGTERM'd daemon restarts from a compacted, fully
// durable image. exit is os.Exit in main; tests substitute a recorder.
func shutdownOnSignal(sigc <-chan os.Signal, s *service.Service, exit func(int)) {
	sig := <-sigc
	slog.Info("graspd shutting down; flushing journal", "signal", sig.String())
	if err := s.Close(); err != nil {
		slog.Error("graspd shutdown flush failed", "err", err)
		exit(1)
		return
	}
	exit(0)
}

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		workers       = flag.Int("workers", 0, "platform worker slots (0 = GOMAXPROCS; at least 2)")
		clusterListen = flag.String("cluster-listen", "", "serve the worker-node protocol on this address (empty = cluster disabled)")
		deadAfter     = flag.Duration("dead-after", 3*time.Second, "cluster: declare a silent worker node dead after this long (at least 3ms; workers heartbeat at a third of it)")
		dataDir       = flag.String("data-dir", "", "durability: journal job state under this directory and recover it on restart (empty = in-memory only)")
		logFormat     = flag.String("log-format", "text", "log output format (text, json)")
		logLevel      = flag.String("log-level", "info", "minimum log level (debug, info, warn, error)")
		debugAddr     = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	)
	flag.Parse()

	logger, lerr := olog.NewStderr(*logFormat, *logLevel)
	if lerr != nil {
		log.Fatal(lerr)
	}
	slog.SetDefault(logger)

	cfg := service.Config{
		Workers: *workers,
		DataDir: *dataDir,
		Logger:  logger.With("component", "service"),
	}
	var coord *cluster.Coordinator
	if *clusterListen != "" {
		if err := cluster.CheckDeadAfter(*deadAfter); err != nil {
			logger.Error("graspd: -dead-after refused", "err", err, "dead_after", deadAfter.String())
			os.Exit(2)
		}
		coord = cluster.NewCoordinator(cluster.Config{
			DeadAfter: *deadAfter,
			Logger:    logger.With("component", "cluster"),
		})
		cfg.Cluster = coord
	}
	// Open replays the journal and restores the coordinator's generation
	// and dispatch-id floors; the cluster listener must not accept a
	// single registration before that, or a recycled generation could
	// validate a dead process's credentials.
	h, s, err := openDaemon(cfg)
	if err != nil {
		logger.Error("graspd open failed", "err", err)
		os.Exit(1)
	}
	if coord != nil {
		// The cluster port speaks both bindings: the server sniffs each
		// connection's first byte and routes HTTP (JSON) or binary frames,
		// and each worker picks the binding it speaks at registration.
		csrv := cluster.NewServer(coord)
		go func() {
			logger.Info("graspd cluster coordinator serving",
				"addr", *clusterListen, "dead_after", *deadAfter)
			if err := csrv.ListenAndServe(*clusterListen); err != nil {
				logger.Error("cluster listener failed", "err", err)
				os.Exit(1)
			}
		}()
	}
	olog.ServeDebug(*debugAddr, logger, nil)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go shutdownOnSignal(sigc, s, os.Exit)
	if *dataDir != "" {
		logger.Info("graspd journaling", "data_dir", *dataDir)
	}
	logger.Info("graspd serving", "addr", *addr, "workers", s.Workers())
	if err := http.ListenAndServe(*addr, h); err != nil {
		logger.Error("graspd listener failed", "err", err)
		os.Exit(1)
	}
}
