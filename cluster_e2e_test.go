// End-to-end smoke for the distributed worker-node subsystem across real
// process boundaries: one graspd daemon and two graspworker processes,
// jobs declared with `placement: cluster`, and a worker killed mid-stream
// to prove Faults-based reassignment redelivers its work exactly once.
package grasp_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// goTool locates the go binary (same lookup as the mains build check).
func goTool(t *testing.T) string {
	t.Helper()
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); err != nil {
		var lookErr error
		goBin, lookErr = exec.LookPath("go")
		if lookErr != nil {
			t.Skip("go toolchain not available")
		}
	}
	return goBin
}

// freePort reserves an ephemeral localhost port and returns it.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

// syncBuffer guards process output: exec's pipe copier writes it from its
// own goroutine while the test may read it for a failure report.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// e2eProc is one spawned binary with captured output for failure reports.
type e2eProc struct {
	cmd *exec.Cmd
	out syncBuffer
}

func startProc(t *testing.T, name string, args ...string) *e2eProc {
	t.Helper()
	p := &e2eProc{cmd: exec.Command(name, args...)}
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = &p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	t.Cleanup(func() {
		if p.cmd.Process != nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	return p
}

// httpJSON drives the daemon API, failing the test on transport errors.
func httpJSON(t *testing.T, method, url string, body any, out any) (int, error) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// waitFor polls cond until it reports true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

type e2eNode struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	InFlight  int    `json:"in_flight"`
	Completed int64  `json:"completed"`
}

type e2eStatus struct {
	State     string `json:"state"`
	Completed int    `json:"completed"`
	Failures  int    `json:"failures"`
	Placement string `json:"placement"`
	Nodes     []struct {
		Node       string `json:"node"`
		Dispatched int64  `json:"dispatched"`
		Completed  int64  `json:"completed"`
		Failed     int64  `json:"failed"`
	} `json:"nodes"`
}

// pollNodes fetches the daemon's node listing.
func pollNodes(t *testing.T, api string) []e2eNode {
	t.Helper()
	var reply struct {
		Nodes []e2eNode `json:"nodes"`
	}
	if _, err := httpJSON(t, "GET", api+"/api/v1/nodes", nil, &reply); err != nil {
		return nil
	}
	return reply.Nodes
}

// drainJob closes the job and polls its results until done, returning the
// per-task completion counts.
func drainJob(t *testing.T, api, name string, deadline time.Duration) map[int]int {
	t.Helper()
	return drainJobFrom(t, api, name, 0, deadline)
}

// drainJobFrom is drainJob resuming from an already-advanced cursor — the
// recovery test uses it to prove a pre-crash cursor stays valid.
func drainJobFrom(t *testing.T, api, name string, cursor int, deadline time.Duration) map[int]int {
	t.Helper()
	if code, _ := httpJSON(t, "POST", api+"/api/v1/jobs/"+name+"/close", nil, nil); code != http.StatusOK {
		t.Fatalf("close %s: HTTP %d", name, code)
	}
	seen := make(map[int]int)
	waitFor(t, deadline, name+" to drain", func() bool {
		var poll struct {
			Results []struct {
				ID   int    `json:"id"`
				Node string `json:"node"`
			} `json:"results"`
			Next  int    `json:"next"`
			State string `json:"state"`
		}
		if _, err := httpJSON(t, "GET", fmt.Sprintf("%s/api/v1/jobs/%s/results?after=%d", api, name, cursor), nil, &poll); err != nil {
			return false
		}
		for _, r := range poll.Results {
			seen[r.ID]++
			if r.Node == "" {
				t.Errorf("%s: result %d missing node attribution", name, r.ID)
			}
		}
		cursor = poll.Next
		return poll.State == "done"
	})
	return seen
}

func pushTasks(t *testing.T, api, name string, from, n int, sleepUS int64) {
	t.Helper()
	tasks := make([]map[string]any, n)
	for i := range tasks {
		tasks[i] = map[string]any{"id": from + i, "sleep_us": sleepUS}
	}
	code, err := httpJSON(t, "POST", api+"/api/v1/jobs/"+name+"/tasks", map[string]any{"tasks": tasks}, nil)
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("push %s: HTTP %d err %v", name, code, err)
	}
}

// buildE2EBinaries compiles graspd and graspworker into a temp dir.
func buildE2EBinaries(t *testing.T) (graspd, graspworker string) {
	t.Helper()
	goBin := goTool(t)
	bin := t.TempDir()
	graspd = filepath.Join(bin, "graspd")
	graspworker = filepath.Join(bin, "graspworker")
	for target, dir := range map[string]string{graspd: "./cmd/graspd", graspworker: "./cmd/graspworker"} {
		cmd := exec.Command(goBin, "build", "-o", target, dir)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", dir, err, out)
		}
	}
	return graspd, graspworker
}

// TestClusterE2EMultiProcess runs the full multi-process scenario once
// per wire binding: the worker processes pin -transport so both the JSON
// and the binary framing cross real process and socket boundaries.
func TestClusterE2EMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode (CI runs it in its own job)")
	}
	graspd, graspworker := buildE2EBinaries(t)
	for _, transport := range []string{"json", "binary"} {
		t.Run(transport, func(t *testing.T) {
			clusterE2EMultiProcess(t, graspd, graspworker, transport)
		})
	}
}

func clusterE2EMultiProcess(t *testing.T, graspd, graspworker, transport string) {
	apiPort, clusterPort := freePort(t), freePort(t)
	api := fmt.Sprintf("http://127.0.0.1:%d", apiPort)
	daemon := startProc(t, graspd,
		"-addr", fmt.Sprintf("127.0.0.1:%d", apiPort),
		"-cluster-listen", fmt.Sprintf("127.0.0.1:%d", clusterPort),
		"-dead-after", "700ms",
		"-workers", "2")
	defer func() {
		if t.Failed() {
			t.Logf("graspd output:\n%s", daemon.out.String())
		}
	}()
	waitFor(t, 10*time.Second, "daemon health", func() bool {
		code, err := httpJSON(t, "GET", api+"/healthz", nil, nil)
		return err == nil && code == http.StatusOK
	})

	coordinator := fmt.Sprintf("http://127.0.0.1:%d", clusterPort)
	worker := func(id string) *e2eProc {
		return startProc(t, graspworker,
			"-coordinator", coordinator, "-id", id,
			"-capacity", "2", "-transport", transport)
	}
	worker("e2e-w1")
	w2 := worker("e2e-w2")
	waitFor(t, 15*time.Second, "both workers live", func() bool {
		live := 0
		for _, n := range pollNodes(t, api) {
			if n.State == "live" {
				live++
			}
		}
		return live == 2
	})

	// A pipeline job through the cluster: four stages over the four
	// execution slots (2 workers × capacity 2) map one stage onto every
	// slot, so completion proves the job spanned both processes. (Two
	// stages could legitimately land on one node's two slots.)
	code, err := httpJSON(t, "POST", api+"/api/v1/jobs", map[string]any{
		"name": "pipe", "skeleton": "pipeline", "placement": "cluster",
		"stages": []map[string]any{
			{"name": "a"}, {"name": "b", "cost_factor": 2}, {"name": "c"}, {"name": "d"},
		},
	}, nil)
	if err != nil || code != http.StatusCreated {
		t.Fatalf("create pipe: HTTP %d err %v", code, err)
	}
	pushTasks(t, api, "pipe", 0, 20, 500)
	pipeSeen := drainJob(t, api, "pipe", 30*time.Second)
	assertExactlyOnce(t, "pipe", pipeSeen, 20)
	var pipeStatus e2eStatus
	httpJSON(t, "GET", api+"/api/v1/jobs/pipe", nil, &pipeStatus)
	for _, nc := range pipeStatus.Nodes {
		if nc.Completed == 0 {
			t.Errorf("pipe: node %s executed nothing; job did not span both processes", nc.Node)
		}
	}

	// The farm job that survives a worker kill: stream slow tasks, wait for
	// the victim to be mid-execution with completions on its tally, then
	// SIGKILL it. Missed heartbeats must retire the node and redeliver its
	// in-flight work to the survivor with no loss and no duplicates.
	code, err = httpJSON(t, "POST", api+"/api/v1/jobs", map[string]any{
		"name": "farm", "placement": "cluster",
	}, nil)
	if err != nil || code != http.StatusCreated {
		t.Fatalf("create farm: HTTP %d err %v", code, err)
	}
	pushTasks(t, api, "farm", 0, 40, 10_000)
	waitFor(t, 20*time.Second, "victim mid-execution", func() bool {
		var st e2eStatus
		httpJSON(t, "GET", api+"/api/v1/jobs/farm", nil, &st)
		for _, nc := range st.Nodes {
			if nc.Node == "e2e-w2" && nc.Completed >= 2 && nc.Dispatched > nc.Completed+nc.Failed {
				return true
			}
		}
		return false
	})
	if err := w2.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	pushTasks(t, api, "farm", 40, 10, 10_000)

	// Elastic membership: a third worker process registers while the farm
	// job is mid-stream. The coordinator's node event feeds the running
	// job's pool and engine membership, so the joiner must start executing
	// this job's tasks without any restart.
	worker("e2e-w3")
	waitFor(t, 20*time.Second, "joiner executing mid-stream tasks", func() bool {
		var st e2eStatus
		httpJSON(t, "GET", api+"/api/v1/jobs/farm", nil, &st)
		for _, nc := range st.Nodes {
			if nc.Node == "e2e-w3" && nc.Completed >= 1 {
				return true
			}
		}
		return false
	})
	pushTasks(t, api, "farm", 50, 10, 10_000)
	farmSeen := drainJob(t, api, "farm", 60*time.Second)
	assertExactlyOnce(t, "farm", farmSeen, 60)

	var farmStatus e2eStatus
	httpJSON(t, "GET", api+"/api/v1/jobs/farm", nil, &farmStatus)
	if farmStatus.Failures == 0 {
		t.Error("farm: expected failed executions from the killed worker")
	}
	var victim, survivor, joiner bool
	for _, nc := range farmStatus.Nodes {
		switch nc.Node {
		case "e2e-w2":
			victim = nc.Completed >= 2 && nc.Failed > 0
		case "e2e-w1":
			survivor = nc.Completed > 0
		case "e2e-w3":
			joiner = nc.Completed > 0
		}
	}
	if !victim || !survivor {
		t.Errorf("farm per-node status = %+v: want the victim's completions+failures and the survivor's completions", farmStatus.Nodes)
	}
	if !joiner {
		t.Errorf("farm per-node status = %+v: want completions from e2e-w3, which joined mid-stream", farmStatus.Nodes)
	}

	// The coordinator's view agrees: the survivor and the joiner are live,
	// the victim dead.
	waitFor(t, 5*time.Second, "dead node listed", func() bool {
		live, dead := 0, 0
		for _, n := range pollNodes(t, api) {
			switch n.State {
			case "live":
				live++
			case "dead":
				dead++
			}
		}
		return live == 2 && dead == 1
	})
}

// TestClusterE2EDaemonRecovery is the fault-injection recovery proof
// across real process boundaries: a graspd running with -data-dir is
// SIGKILLed mid-stream (no flush, no goodbye — the journal's fsync
// discipline is all that survives), a second graspd restarts over the
// same directory and ports, the worker processes — which outlived the
// daemon — re-register through the ErrGone path, the recovered job
// resumes, and every task completes exactly once across both daemon
// lives, with the pre-crash results cursor still valid.
// It too runs once per wire binding — the ErrGone re-register path after
// a daemon SIGKILL must hold when the verbs travel as binary frames.
func TestClusterE2EDaemonRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode (CI runs it in its own job)")
	}
	graspd, graspworker := buildE2EBinaries(t)
	for _, transport := range []string{"json", "binary"} {
		t.Run(transport, func(t *testing.T) {
			clusterE2EDaemonRecovery(t, graspd, graspworker, transport)
		})
	}
}

func clusterE2EDaemonRecovery(t *testing.T, graspd, graspworker, transport string) {
	dataDir := t.TempDir()
	apiPort, clusterPort := freePort(t), freePort(t)
	api := fmt.Sprintf("http://127.0.0.1:%d", apiPort)
	daemonArgs := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", apiPort),
		"-cluster-listen", fmt.Sprintf("127.0.0.1:%d", clusterPort),
		"-dead-after", "700ms",
		"-workers", "2",
		"-data-dir", dataDir,
	}
	daemon := startProc(t, graspd, daemonArgs...)
	defer func() {
		if t.Failed() {
			t.Logf("graspd (first life) output:\n%s", daemon.out.String())
		}
	}()
	waitFor(t, 10*time.Second, "daemon health", func() bool {
		code, err := httpJSON(t, "GET", api+"/healthz", nil, nil)
		return err == nil && code == http.StatusOK
	})

	coordinator := fmt.Sprintf("http://127.0.0.1:%d", clusterPort)
	for _, id := range []string{"rec-w1", "rec-w2"} {
		startProc(t, graspworker,
			"-coordinator", coordinator, "-id", id,
			"-capacity", "2", "-transport", transport)
	}
	waitFor(t, 15*time.Second, "both workers live", func() bool {
		live := 0
		for _, n := range pollNodes(t, api) {
			if n.State == "live" {
				live++
			}
		}
		return live == 2
	})

	code, err := httpJSON(t, "POST", api+"/api/v1/jobs", map[string]any{
		"name": "rec", "placement": "cluster",
	}, nil)
	if err != nil || code != http.StatusCreated {
		t.Fatalf("create rec: HTTP %d err %v", code, err)
	}
	pushTasks(t, api, "rec", 0, 30, 10_000)

	// Advance the cursor past a prefix of durable acks, so the restart has
	// both delivered and undelivered work to get right.
	seen := make(map[int]int)
	cursor := 0
	waitFor(t, 30*time.Second, "a prefix of results before the kill", func() bool {
		var poll struct {
			Results []struct {
				ID int `json:"id"`
			} `json:"results"`
			Next int `json:"next"`
		}
		if _, err := httpJSON(t, "GET", fmt.Sprintf("%s/api/v1/jobs/rec/results?after=%d", api, cursor), nil, &poll); err != nil {
			return false
		}
		for _, r := range poll.Results {
			seen[r.ID]++
		}
		cursor = poll.Next
		return len(seen) >= 8
	})

	// SIGKILL: the daemon gets no chance to flush anything.
	if err := daemon.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	daemon.cmd.Wait()

	// Second life over the same directory and ports. The workers were
	// never told anything happened; their next heartbeat draws ErrGone
	// from the restored registry (their generations are dead seeds) and
	// they re-register with fresh, strictly higher generations.
	daemon2 := startProc(t, graspd, daemonArgs...)
	defer func() {
		if t.Failed() {
			t.Logf("graspd (second life) output:\n%s", daemon2.out.String())
		}
	}()
	waitFor(t, 10*time.Second, "restarted daemon health", func() bool {
		code, err := httpJSON(t, "GET", api+"/healthz", nil, nil)
		return err == nil && code == http.StatusOK
	})
	waitFor(t, 15*time.Second, "workers re-registered", func() bool {
		live := 0
		for _, n := range pollNodes(t, api) {
			if n.State == "live" {
				live++
			}
		}
		return live == 2
	})

	// The recovered job accepts new work and finishes the stream.
	waitFor(t, 15*time.Second, "recovered job accepting pushes", func() bool {
		tasks := make([]map[string]any, 10)
		for i := range tasks {
			tasks[i] = map[string]any{"id": 30 + i, "sleep_us": 10_000}
		}
		code, err := httpJSON(t, "POST", api+"/api/v1/jobs/rec/tasks", map[string]any{"tasks": tasks}, nil)
		return err == nil && code == http.StatusAccepted
	})
	for id, n := range drainJobFrom(t, api, "rec", cursor, 60*time.Second) {
		seen[id] += n
	}
	assertExactlyOnce(t, "rec", seen, 40)

	// And the coordinator's restored token floors held: no worker is
	// running under a recycled generation (a re-register happened, so the
	// node listing shows exactly the two live re-registrations).
	var status e2eStatus
	httpJSON(t, "GET", api+"/api/v1/jobs/rec", nil, &status)
	for _, nc := range status.Nodes {
		if nc.Completed == 0 {
			t.Errorf("rec: node %s executed nothing after recovery", nc.Node)
		}
	}
}

// assertExactlyOnce checks every task id in [0, n) completed exactly once.
func assertExactlyOnce(t *testing.T, job string, seen map[int]int, n int) {
	t.Helper()
	if len(seen) != n {
		t.Errorf("%s: %d distinct results, want %d", job, len(seen), n)
	}
	for id := 0; id < n; id++ {
		if seen[id] != 1 {
			t.Errorf("%s: task %d completed %d times, want exactly once", job, id, seen[id])
		}
	}
}
