package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// topology is which processes a workload runs against.
type topology struct {
	durable  bool // graspd -data-dir
	workers  int  // graspworker processes (0 = no cluster listener)
	capacity int  // graspworker -capacity
	batch    int  // graspworker -batch
	// degradeAfter, when set, scripts node n0 to run degradeFactor× slower
	// that long after the worker starts.
	degradeAfter  time.Duration
	degradeFactor float64
}

// sut is one deployment of the system under test: a graspd and its
// graspworkers, each a real process on a free port.
type sut struct {
	env         *environment
	topo        topology
	graspd      *proc
	graspdArgs  []string
	workers     []*proc
	workerDebug []string // each worker's -debug-addr
	dataDir     string
	base        string
	cl          *client
}

// daemonWorkers is graspd -workers on every workload. Two local slots is
// the engine's minimum and matches the two cores the sizing runs had; the
// benchmark fixes it so a machine with more cores measures the same
// configuration, with less contention.
const daemonWorkers = 2

// startSUT brings a deployment up and returns how long that took: from
// exec of graspd until the daemon is healthy, every worker is registered
// and the first job is accepting tasks. The binaries are already built.
func startSUT(env *environment, topo topology, firstJob map[string]any) (*sut, float64, error) {
	s := &sut{env: env, topo: topo}
	ok := false
	defer func() {
		if !ok {
			s.stop()
		}
	}()
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	s.base = "http://" + addr
	s.graspdArgs = []string{"-addr", addr, "-workers", strconv.Itoa(daemonWorkers), "-log-level", "warn"}
	if topo.durable {
		s.dataDir, err = os.MkdirTemp(env.workDir, "data-")
		if err != nil {
			return nil, 0, err
		}
		s.graspdArgs = append(s.graspdArgs, "-data-dir", s.dataDir)
	}
	clusterAddr := ""
	if topo.workers > 0 {
		if clusterAddr, err = freeAddr(); err != nil {
			return nil, 0, err
		}
		s.graspdArgs = append(s.graspdArgs, "-cluster-listen", clusterAddr)
	}
	s.cl = newClient(s.base, env.conns, env.epoch, env.tr)

	begin := time.Now()
	if err := s.startDaemon(); err != nil {
		return nil, 0, err
	}
	for i := 0; i < topo.workers; i++ {
		debug, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		args := []string{
			"-coordinator", "http://" + clusterAddr, "-id", "n" + strconv.Itoa(i),
			"-capacity", strconv.Itoa(topo.capacity), "-batch", strconv.Itoa(topo.batch),
			"-transport", "binary", "-debug-addr", debug, "-log-level", "warn",
		}
		if i == 0 && topo.degradeAfter > 0 {
			args = append(args, "-degrade-after", topo.degradeAfter.String(),
				"-degrade-factor", strconv.FormatFloat(topo.degradeFactor, 'g', -1, 64))
		}
		w, err := spawn("graspworker n"+strconv.Itoa(i), filepath.Join(env.binDir, "graspworker"), args...)
		if err != nil {
			return nil, 0, err
		}
		s.workers = append(s.workers, w)
		s.workerDebug = append(s.workerDebug, "http://"+debug)
	}
	if topo.workers > 0 {
		err := s.await("workers registered", func() bool {
			n, err := s.cl.liveNodes()
			return err == nil && n == topo.workers
		})
		if err != nil {
			return nil, 0, err
		}
	}
	if err := s.cl.createJob(firstJob); err != nil {
		return nil, 0, fmt.Errorf("create first job: %w", err)
	}
	ok = true
	return s, time.Since(begin).Seconds(), nil
}

// startDaemon execs graspd and waits until it answers /healthz.
func (s *sut) startDaemon() error {
	p, err := spawn("graspd", filepath.Join(s.env.binDir, "graspd"), s.graspdArgs...)
	if err != nil {
		return err
	}
	s.graspd = p
	return s.await("graspd healthy", s.cl.healthy)
}

// await polls cond every millisecond until it holds; it fails when a
// process has died or ten seconds pass.
func (s *sut) await(what string, cond func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if err := s.alive(); err != nil {
			return fmt.Errorf("waiting for %s: %w", what, err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("waiting for %s: timed out", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// alive reports the first process of the deployment that has exited.
func (s *sut) alive() error {
	for _, p := range s.procs() {
		if p.exited() {
			return fmt.Errorf("%s exited: %s", p.name, p.stderr)
		}
	}
	return nil
}

func (s *sut) procs() []*proc {
	var out []*proc
	if s.graspd != nil {
		out = append(out, s.graspd)
	}
	return append(out, s.workers...)
}

// crashAndRestart SIGKILLs graspd and starts it again on the same data
// directory. It returns how long the restart took, from exec until the
// recovered job's status is served again.
func (s *sut) crashAndRestart(job string) (float64, error) {
	if s.dataDir == "" {
		return 0, errors.New("crash check needs a durable deployment")
	}
	s.graspd.kill()
	s.cl.close() // its keep-alive connections died with the daemon
	begin := time.Now()
	if err := s.startDaemon(); err != nil {
		return 0, err
	}
	if _, err := s.cl.status(job); err != nil {
		return 0, fmt.Errorf("job %s not served after restart: %w", job, err)
	}
	return time.Since(begin).Seconds(), nil
}

// stop kills and reaps every process and removes the data directory.
func (s *sut) stop() {
	for _, p := range s.procs() {
		p.kill()
	}
	if s.cl != nil {
		s.cl.close()
	}
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}
