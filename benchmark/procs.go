package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark builds or writes lives, inside
// the checkout and ignored by git.
const buildDir = ".bench_build"

// buildDaemons compiles ipuserved and ipurouterd (no -race) into
// <root>/.bench_build/bin and reports how long that took. The time is
// reported as loadgen.build_s and never counted in setup_s.
func buildDaemons(root string) (binDir string, seconds float64, err error) {
	binDir = filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/ipuserved", "./cmd/ipurouterd")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("go build of the daemons: %w\n%s", err, out.String())
	}
	return binDir, time.Since(start).Seconds(), nil
}

// proc is one daemon the benchmark started.
type proc struct {
	name   string
	cmd    *exec.Cmd
	log    *os.File
	addr   string        // host:port once listening
	exited chan struct{} // closed when the process has ended and been waited for
}

func (p *proc) url() string { return "http://" + p.addr }
func (p *proc) pid() int    { return p.cmd.Process.Pid }

// live tracks every started daemon so that no exit path leaves one behind.
var live struct {
	mu    sync.Mutex
	procs map[*proc]struct{}
}

// anyPort lets the kernel pick the port; the daemon reports it through its
// port file.
const anyPort = "127.0.0.1:0"

// startDaemon launches bin with args plus -addr and -port-file and waits
// until it listens. Its output goes to <dir>/<name>.log. A daemon that exits
// before listening (its port was taken, say) is reported at once.
func startDaemon(name, bin, dir, addr string, args ...string) (*proc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	portFile := filepath.Join(dir, name+".port")
	_ = os.Remove(portFile) // a stale file from an earlier cycle would be read as this one's
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	args = append([]string{"-addr", addr, "-port-file", portFile}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed daemon's exit status is an error by design
		close(p.exited)
	}()
	live.mu.Lock()
	if live.procs == nil {
		live.procs = map[*proc]struct{}{}
	}
	live.procs[p] = struct{}{}
	live.mu.Unlock()

	fail := func(what string) (*proc, error) {
		p.stop()
		tail, _ := os.ReadFile(logf.Name())
		return nil, fmt.Errorf("%s %s:\n%s", name, what, tail)
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			p.addr = strings.TrimSpace(string(b))
			return p, nil
		}
		select {
		case <-p.exited:
			return fail("exited before listening")
		// 1 ms keeps the poll's share of setup_s below measurement noise.
		case <-time.After(time.Millisecond):
		}
	}
	return fail("did not listen within 15s")
}

// stop kills the daemon and waits until it has ended.
func (p *proc) stop() {
	live.mu.Lock()
	_, mine := live.procs[p]
	delete(live.procs, p)
	live.mu.Unlock()
	if !mine {
		return
	}
	_ = p.cmd.Process.Kill() // already exited is fine
	<-p.exited
	p.log.Close()
}

// stopAll ends every daemon still running; called on every exit path.
func stopAll() {
	live.mu.Lock()
	var ps []*proc
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.mu.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; Linux
// fixes it at 100 for user space on every architecture Go supports.
const clockTicks = 100

// cpuSeconds is utime+stime of a process from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64) // field 14
	st, err2 := strconv.ParseUint(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB is VmHWM of a process in MB from /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPUSeconds is this process's own user+system time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// sumCPU and sumRSS total the daemons of one workload.
func sumCPU(ps []*proc) (float64, error) {
	var t float64
	for _, p := range ps {
		c, err := cpuSeconds(p.pid())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		t += c
	}
	return t, nil
}

func sumRSS(ps []*proc) (float64, error) {
	var t float64
	for _, p := range ps {
		r, err := peakRSSMB(p.pid())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		t += r
	}
	return t, nil
}
