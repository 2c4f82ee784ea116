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
//	graspd -addr :8080 -workers 8 -window 16
//
// Serve with the distributed worker-node subsystem enabled (graspworker
// processes register on the cluster listener; jobs created with
// `"placement": "cluster"` execute on them):
//
//	graspd -addr :8080 -cluster-listen :8090
//
// Hammer a running daemon with mixed-skeleton traffic:
//
//	graspd -drive http://localhost:8080 -jobs 6 -tasks 500 -skeletons farm,pipeline,dmap
//
// Replay an adversarial arrival profile against a predictive daemon
// (shed pushes are retried after the advertised Retry-After; the same
// -seed replays the same byte stream under any profile):
//
//	graspd -drive http://localhost:8080 -adapt predictive -profile flash-crowd -seed 7
//
// See the README for the full JSON API, the cluster quickstart, and a curl
// walkthrough.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"grasp/internal/cluster"
	"grasp/internal/loadgen"
	"grasp/internal/olog"
	"grasp/internal/service"
)

// newDaemon wires the service and its handler stack; tests drive exactly
// this function through httptest.
func newDaemon(cfg service.Config) (http.Handler, *service.Service) {
	s := service.New(cfg)
	return service.NewHandler(s), s
}

// openDaemon is newDaemon for durable configurations: with a DataDir set
// it replays the journal (recovering jobs and the cluster registry)
// before any handler exists, so no request can observe pre-recovery
// state.
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

// parseShares parses the -shares list ("1,3" → {1, 3}).
func parseShares(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("-shares: %q is not a positive number", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		workers       = flag.Int("workers", 0, "platform worker slots (0 = GOMAXPROCS)")
		window        = flag.Int("window", 0, "default per-job in-flight window (0 = 2×workers)")
		warmup        = flag.Int("warmup", 0, "completions before a job's threshold is set (0 = 2×workers)")
		factor        = flag.Float64("threshold", 4, "Z = factor × warm-up mean task time")
		maxResults    = flag.Int("max-results", 0, "default per-job result-retention bound (0 = 100000)")
		defaultShare  = flag.Float64("default-share", 1, "fair-share weight for jobs that omit `share`")
		clusterListen = flag.String("cluster-listen", "", "serve the worker-node protocol on this address (empty = cluster disabled)")
		deadAfter     = flag.Duration("dead-after", 3*time.Second, "cluster: declare a silent worker node dead after this long")
		adaptPolicy   = flag.String("adapt", "", "default adaptation policy for jobs that omit `adapt` (reactive, predictive)")
		shedFactor    = flag.Float64("shed-factor", 0, "predictive: shed pushes with 429 once the queue-depth forecast — tasks in the window plus those waiting in blocked pushes — exceeds factor × window (0 = 2, negative = never shed)")
		forecastEvery = flag.Duration("forecast-every", 0, "predictive: queue-depth forecast sampling interval (0 = 20ms)")
		dataDir       = flag.String("data-dir", "", "durability: journal job state under this directory and recover it on restart (empty = in-memory only)")
		drive         = flag.String("drive", "", "drive mode: hammer the daemon at this base URL instead of serving")
		jobs          = flag.Int("jobs", 3, "drive: concurrent jobs")
		tasks         = flag.Int("tasks", 200, "drive: tasks per job")
		batch         = flag.Int("batch", 20, "drive: tasks per POST")
		sleepUS       = flag.Int64("sleep-us", 500, "drive: mean simulated task duration (µs)")
		seed          = flag.Int64("seed", 1, "drive: jitter seed")
		skeletons     = flag.String("skeletons", "farm", "drive: comma-separated skeletons cycled across jobs (farm,pipeline,dmap)")
		placement     = flag.String("placement", "", "drive: job placement (local, cluster)")
		profile       = flag.String("profile", "", "drive: arrival profile (steady, flash-crowd, sustained-overload)")
		shares        = flag.String("shares", "", "drive: comma-separated fair-share weights cycled across jobs (e.g. 1,3)")
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

	if *drive != "" {
		shareList, err := parseShares(*shares)
		if err != nil {
			log.Fatal(err)
		}
		if *profile == "steady" {
			*profile = loadgen.ProfileSteady
		}
		summary := loadgen.Driver{
			BaseURL:     *drive,
			Jobs:        *jobs,
			TasksPerJob: *tasks,
			Batch:       *batch,
			SleepUS:     *sleepUS,
			Window:      *window,
			Seed:        *seed,
			Skeletons:   strings.Split(*skeletons, ","),
			Placement:   *placement,
			Shares:      shareList,
			Adapt:       *adaptPolicy,
			Profile:     *profile,
		}.Run()
		fmt.Printf("drove %d jobs, %d/%d tasks completed in %v (%d pushes shed)\n",
			len(summary.Jobs), summary.Completed, summary.Tasks, summary.Elapsed.Round(time.Millisecond), summary.Shed)
		for _, j := range summary.Jobs {
			fmt.Printf("  %-12s %-8s %5d/%5d tasks  breaches=%d recals=%d max_in_flight=%d dup=%d\n",
				j.Name, j.Skeleton, j.Completed, j.Submitted, j.Breaches, j.Recalibrations, j.MaxInFlight, j.Duplicates)
		}
		for _, e := range summary.Errors {
			fmt.Fprintf(os.Stderr, "error: %s\n", e)
		}
		if !summary.OK() {
			os.Exit(1)
		}
		return
	}

	cfg := service.Config{
		Workers:         *workers,
		DefaultWindow:   *window,
		WarmupTasks:     *warmup,
		ThresholdFactor: *factor,
		MaxResults:      *maxResults,
		DefaultShare:    *defaultShare,
		DefaultAdapt:    *adaptPolicy,
		ShedFactor:      *shedFactor,
		ForecastEvery:   *forecastEvery,
		DataDir:         *dataDir,
		Logger:          logger.With("component", "service"),
	}
	var coord *cluster.Coordinator
	if *clusterListen != "" {
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
