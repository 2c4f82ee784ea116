package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildBinaries compiles the programs under test once into binDir. With
// ladder set it also compiles the in-process ladder, which is the only
// part of the benchmark that imports the repo's internal packages.
func buildBinaries(root, binDir string, ladder bool) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	build := func(dir string, args ...string) error {
		cmd := exec.Command("go", append([]string{"build", "-o", binDir + string(os.PathSeparator)}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go build %v in %s: %v\n%s", args, dir, err, out)
		}
		return nil
	}
	if err := build(root, "./cmd/graspd", "./cmd/graspworker"); err != nil {
		return err
	}
	if ladder {
		return build(filepath.Join(root, "bench"), "./ladder")
	}
	return nil
}

// freeAddr returns a loopback address whose port was free a moment ago.
// The port is drawn at random from below the kernel's ephemeral range:
// ports in that range are handed to outgoing connections — the benchmark's
// own among them — so one found free there can be taken again before the
// daemon binds it.
func freeAddr() (string, error) {
	low := 32768
	if data, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(data)); len(f) == 2 {
			if v, err := strconv.Atoi(f[0]); err == nil && v > 12000 {
				low = v
			}
		}
	}
	var lastErr error
	for try := 0; try < 64; try++ {
		addr := "127.0.0.1:" + strconv.Itoa(10000+rand.Intn(low-10000))
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			lastErr = err
			continue
		}
		ln.Close()
		return addr, nil
	}
	return "", fmt.Errorf("no free port: %w", lastErr)
}

// tailBuffer keeps the last bytes a child wrote to stderr, for the failure
// report.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 8192; over > 0 {
		t.buf = t.buf[over:]
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// proc is one child process in its own process group.
type proc struct {
	name     string
	cmd      *exec.Cmd
	stderr   *tailBuffer
	started  time.Time
	waited   chan struct{}
	killOnce sync.Once
}

// spawn starts bin with args in a new process group. The child is killed
// if the benchmark dies first, so a crashed run leaves no daemon behind.
func spawn(name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, stderr: &tailBuffer{}, waited: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stderr = p.stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	p.started = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		p.cmd.Wait() // the exit status of a killed child is not news
		close(p.waited)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// exited reports whether the process has ended.
func (p *proc) exited() bool {
	select {
	case <-p.waited:
		return true
	default:
		return false
	}
}

// kill ends the process group with SIGKILL and returns when the child has
// been reaped. The daemons hold nothing the benchmark wants flushed: a
// durable daemon's data directory is either reopened (the crash check) or
// removed.
func (p *proc) kill() {
	if p == nil {
		return
	}
	// Never signal a reaped child: its pid can be reused, and the signal
	// would hit a stranger's process group.
	p.killOnce.Do(func() {
		if !p.exited() {
			syscall.Kill(-p.pid(), syscall.SIGKILL)
		}
		<-p.waited
	})
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's CPU fields; Linux
// fixes it at 100 for every architecture's user space.
const clockTick = 100

// cpuSeconds returns the user+system CPU time the process and its threads
// have used, read from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces and parentheses; fields are counted
	// from after the last ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat")
	}
	return float64(utime+stime) / clockTick, nil
}

// peakRSSMB returns the process's resident-set high-water mark in MB.
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// selfCPUSeconds is the benchmark process's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil // a file rotated away mid-walk is not an error here
	})
	return total
}
