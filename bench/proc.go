package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Child processes. Every server under test is a real binary started as
// a child in its own process group with Pdeathsig set, so neither a
// panic in the driver nor a kill -9 of it leaves a server behind. The
// driver's main goroutine stays locked to the main thread (see main):
// Pdeathsig fires when the *thread* that forked exits, and the main
// thread is the one thread that outlives everything else.

// child is one running server process.
type child struct {
	name string
	cmd  *exec.Cmd
	pid  int

	mu    sync.Mutex
	lines []string // stdout, complete lines
	errb  bytes.Buffer
	addrs chan string // first "listening on" address, then closed
	admin chan string // first "admin endpoint on" address
	done  chan struct{}
	err   error // Wait's result, valid after done
}

// children is the registry the exit paths reap from.
var children struct {
	mu   sync.Mutex
	live map[*child]struct{}
}

// startChild launches bin with args and returns once it is running; use
// waitBanner for the listen address.
func startChild(name, bin, tmpDir string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Env = append(os.Environ(), "TMPDIR="+tmpDir)
	c := &child{
		name: name, cmd: cmd,
		addrs: make(chan string, 1), admin: make(chan string, 1),
		done: make(chan struct{}),
	}
	cmd.Stderr = &c.errb
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	c.pid = cmd.Process.Pid
	children.mu.Lock()
	if children.live == nil {
		children.live = map[*child]struct{}{}
	}
	children.live[c] = struct{}{}
	children.mu.Unlock()
	go c.pump(out)
	return c, nil
}

// pump collects stdout, publishes the banner addresses, then reaps.
func (c *child) pump(out io.Reader) {
	sc := bufio.NewScanner(out)
	addrs, admin := c.addrs, c.admin
	for sc.Scan() {
		line := sc.Text()
		c.mu.Lock()
		c.lines = append(c.lines, line)
		c.mu.Unlock()
		if a, ok := bannerAddr(line, "listening on "); ok && addrs != nil {
			addrs <- a
			addrs = nil
		}
		if a, ok := bannerAddr(line, "admin endpoint on http://"); ok && admin != nil {
			admin <- a
			admin = nil
		}
	}
	c.err = c.cmd.Wait()
	close(c.done)
}

// bannerAddr extracts the host:port that follows marker in a start-up
// banner line.
func bannerAddr(line, marker string) (string, bool) {
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	rest := line[i+len(marker):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	if _, _, ok := strings.Cut(rest, ":"); !ok {
		return "", false
	}
	return rest, true
}

const startTimeout = 20 * time.Second

// waitBanner waits for an address on ch, failing if the process exits
// first.
func (c *child) waitBanner(ch chan string, what string) (string, error) {
	select {
	case a := <-ch:
		return a, nil
	case <-c.done:
		return "", fmt.Errorf("%s exited before printing its %s: %v\n%s", c.name, what, c.err, c.errb.String())
	case <-time.After(startTimeout):
		return "", fmt.Errorf("%s printed no %s within %v", c.name, what, startTimeout)
	}
}

// output returns the stdout lines seen so far.
func (c *child) output() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.lines...)
}

// stop drains the server with SIGINT, escalates to SIGKILL on the whole
// process group, and reaps it. It returns the exit-banner lines. Once
// the process has been reaped stop only returns them: its pid may
// already belong to someone else.
func (c *child) stop() []string {
	select {
	case <-c.done:
	default:
		_ = syscall.Kill(c.pid, syscall.SIGINT)
		select {
		case <-c.done:
		case <-time.After(drainBudget + 2*time.Second):
			_ = syscall.Kill(-c.pid, syscall.SIGKILL)
			<-c.done
		}
	}
	children.mu.Lock()
	delete(children.live, c)
	children.mu.Unlock()
	return c.output()
}

// drainBudget is the -drain each server gets.
const drainBudget = 2 * time.Second

// reapAll stops whatever is still running; every exit path calls it.
func reapAll() {
	children.mu.Lock()
	var live []*child
	for c := range children.live {
		live = append(live, c)
	}
	children.mu.Unlock()
	for _, c := range live {
		c.stop()
	}
}

// ---------------------------------------------------------------------
// /proc readers
// ---------------------------------------------------------------------

// cpuTimes is a process's CPU consumption.
type cpuTimes struct {
	// runNS is on-CPU time summed over the process's threads from
	// task/*/schedstat (ns resolution); 0 when schedstat is absent.
	runNS int64
	// utimeTicks and stimeTicks come from stat: whole process, 1/100 s
	// resolution — used for the user/system split and as the fallback.
	utimeTicks, stimeTicks int64
}

const nsPerTick = int64(time.Second) / 100 // USER_HZ is 100 on Linux

// total is the best available figure for on-CPU ns.
func (t cpuTimes) total() int64 {
	if t.runNS > 0 {
		return t.runNS
	}
	return (t.utimeTicks + t.stimeTicks) * nsPerTick
}

func readCPU(pid int) (cpuTimes, error) {
	dir := "/proc/" + strconv.Itoa(pid)
	b, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	var t cpuTimes
	if t.utimeTicks, t.stimeTicks, err = parseStat(b); err != nil {
		return cpuTimes{}, err
	}
	tasks, _ := filepath.Glob(dir + "/task/*/schedstat")
	for _, p := range tasks {
		sb, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		ns, err := parseSchedstat(sb)
		if err != nil {
			return cpuTimes{}, err
		}
		t.runNS += ns
	}
	return t, nil
}

// parseStat returns utime and stime (fields 14 and 15) from
// /proc/<pid>/stat. The command name may contain spaces and parentheses,
// so fields are counted from the last ')'.
func parseStat(b []byte) (utime, stime int64, err error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, 0, errors.New("proc stat: no command name")
	}
	f := bytes.Fields(b[i+1:])
	// f[0] is field 3 (state), so utime is f[11] and stime f[12].
	if len(f) < 13 {
		return 0, 0, errors.New("proc stat: too few fields")
	}
	if utime, err = strconv.ParseInt(string(f[11]), 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat utime: %w", err)
	}
	if stime, err = strconv.ParseInt(string(f[12]), 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime, stime, nil
}

// parseSchedstat returns the on-CPU ns (first field) of a schedstat file.
func parseSchedstat(b []byte) (int64, error) {
	f := bytes.Fields(b)
	if len(f) < 1 {
		return 0, errors.New("proc schedstat: empty")
	}
	ns, err := strconv.ParseInt(string(f[0]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc schedstat: %w", err)
	}
	return ns, nil
}

// procStatus is what the driver takes from /proc/<pid>/status.
type procStatus struct {
	vmHWMKiB     int64
	ctxVoluntary int64
	ctxForced    int64
}

// procInts reads the "key: value [unit]" lines of a /proc file that
// name one of the wanted keys; what names the file in errors.
func procInts(what string, b []byte, want ...string) (map[string]int64, error) {
	out := make(map[string]int64, len(want))
	for _, line := range strings.Split(string(b), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		for _, w := range want {
			if key != w {
				continue
			}
			f := strings.Fields(val)
			if len(f) == 0 {
				return nil, fmt.Errorf("proc %s: %s has no value", what, key)
			}
			n, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("proc %s %s: %w", what, key, err)
			}
			out[key] = n
		}
	}
	return out, nil
}

// parseStatus tolerates missing keys: a kernel thread has no Vm lines.
func parseStatus(b []byte) (procStatus, error) {
	v, err := procInts("status", b, "VmHWM", "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")
	return procStatus{
		vmHWMKiB:     v["VmHWM"],
		ctxVoluntary: v["voluntary_ctxt_switches"],
		ctxForced:    v["nonvoluntary_ctxt_switches"],
	}, err
}

// readStatus returns the process's peak RSS and its context switches
// summed over threads (status reports switches per task).
func readStatus(pid int) (procStatus, error) {
	dir := "/proc/" + strconv.Itoa(pid)
	b, err := os.ReadFile(dir + "/status")
	if err != nil {
		return procStatus{}, err
	}
	s, err := parseStatus(b)
	if err != nil {
		return s, err
	}
	s.ctxVoluntary, s.ctxForced = 0, 0
	tasks, _ := filepath.Glob(dir + "/task/*/status")
	for _, p := range tasks {
		tb, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		ts, err := parseStatus(tb)
		if err != nil {
			return s, err
		}
		s.ctxVoluntary += ts.ctxVoluntary
		s.ctxForced += ts.ctxForced
	}
	return s, nil
}

// procIO is the syscall counts from /proc/<pid>/io: read-like and
// write-like calls of the whole process.
type procIO struct{ syscr, syscw int64 }

func parseIO(b []byte) (procIO, error) {
	v, err := procInts("io", b, "syscr", "syscw")
	if err == nil && len(v) != 2 {
		err = errors.New("proc io: syscr or syscw missing")
	}
	return procIO{syscr: v["syscr"], syscw: v["syscw"]}, err
}

func readIO(pid int) (procIO, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/io")
	if err != nil {
		return procIO{}, err
	}
	return parseIO(b)
}

// ---------------------------------------------------------------------
// Build
// ---------------------------------------------------------------------

// buildDirName sits in the module root, is listed in .gitignore, and
// holds everything the benchmark leaves between runs — the three server
// binaries (so the next run's go build is a no-op) and the docroot
// workload's files — plus a tmp directory that is emptied on exit.
const buildDirName = ".bench_build"

// moduleRoot walks up from the working directory to the go.mod that
// declares module repro.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(bytes.TrimSpace(b), []byte("module repro")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod declaring module repro at or above the working directory")
		}
		dir = parent
	}
}

// binaries are the programs under test.
type binaries struct {
	nio, mt, proxy string
	buildSeconds   float64
}

// buildServers compiles the three real server binaries from source.
func buildServers(root, buildDir string) (binaries, error) {
	binDir := filepath.Join(buildDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return binaries{}, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator),
		"./cmd/nioserver", "./cmd/mtserver", "./cmd/nioproxy")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build: %v\n%s", err, out)
	}
	return binaries{
		nio:          filepath.Join(binDir, "nioserver"),
		mt:           filepath.Join(binDir, "mtserver"),
		proxy:        filepath.Join(binDir, "nioproxy"),
		buildSeconds: time.Since(t0).Seconds(),
	}, nil
}
