package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// deployment is a running netemud topology the load is sent to. The
// benchmark runs real processes; the smoke test substitutes in-process
// httptest servers.
type deployment interface {
	// url is the base URL load goes to: the single node, or the
	// coordinator.
	url() string
	// workers lists the cluster workers' host:port (nil for one node).
	workers() []string
	// rssMB sums VmHWM over the deployment's processes, in MiB.
	rssMB() (float64, error)
	// cpuS sums user plus system CPU time over the deployment's
	// processes, in seconds.
	cpuS() (float64, error)
	stop() error
}

// shape says what to boot: one node, or a coordinator and two workers.
// storeDir is the -store directory of the node clients talk to.
type shape struct {
	cluster  bool
	storeDir string
}

// launcher boots a deployment and returns once every node answers
// /healthz.
type launcher func(sh shape) (deployment, error)

// healthInterval is the coordinator's worker probe period.
const healthInterval = time.Second

// procLauncher boots netemud processes from the binary at bin, writing
// their logs under logDir.
func procLauncher(bin, logDir string) launcher {
	n := 0
	return func(sh shape) (deployment, error) {
		n++
		d := &procDeployment{}
		logf := func(role string) string { return filepath.Join(logDir, fmt.Sprintf("boot%d-%s.log", n, role)) }
		front := []string{}
		if sh.storeDir != "" {
			front = append(front, "-store", sh.storeDir)
		}
		if sh.cluster {
			for k := 0; k < 2; k++ {
				p, err := spawnListening(bin, []string{"-worker"}, logf(fmt.Sprintf("worker%d", k)))
				if err != nil {
					d.stop()
					return nil, err
				}
				d.procs = append(d.procs, p)
				d.workerAddrs = append(d.workerAddrs, p.addr)
			}
			front = append(front, "-coordinator", "-workers", strings.Join(d.workerAddrs, ","),
				"-health-interval", healthInterval.String())
		}
		p, err := spawnListening(bin, front, logf("front"))
		if err != nil {
			d.stop()
			return nil, err
		}
		d.procs = append(d.procs, p)
		d.front = "http://" + p.addr
		return d, nil
	}
}

type procDeployment struct {
	procs       []*proc // workers first, the front node last
	workerAddrs []string
	front       string
}

func (d *procDeployment) url() string       { return d.front }
func (d *procDeployment) workers() []string { return d.workerAddrs }

func (d *procDeployment) rssMB() (float64, error) {
	var kb int64
	for _, p := range d.procs {
		v, err := vmHWM(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

func (d *procDeployment) cpuS() (float64, error) {
	total := 0.0
	for _, p := range d.procs {
		s, err := procCPU(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// stop ends the front node first, so it never forwards to a worker
// that is already gone.
func (d *procDeployment) stop() error {
	var errs []error
	for i := len(d.procs) - 1; i >= 0; i-- {
		errs = append(errs, d.procs[i].stop())
	}
	d.procs = nil
	return errors.Join(errs...)
}

// proc is one spawned netemud.
type proc struct {
	cmd  *exec.Cmd
	addr string
	log  string
	done chan struct{} // closed once Wait has returned
}

// live tracks every spawned process so that any exit path, including a
// signal, can kill and reap them.
var live struct {
	sync.Mutex
	procs map[*proc]bool
}

// killAll kills and reaps every process still tracked.
func killAll() {
	live.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		p.cmd.Process.Kill()
		<-p.done
	}
}

// freePort asks the kernel for an unused loopback port and releases it
// for the child to bind.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawnListening starts netemud on a free port and waits until it
// answers /healthz and is verifiably the process holding the port. A
// port taken between release and bind gets a fresh port, up to three
// times.
func spawnListening(bin string, args []string, logPath string) (*proc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, fmt.Errorf("picking a port: %w", err)
		}
		p, err := spawn(bin, append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, args...), logPath)
		if err != nil {
			return nil, err
		}
		p.addr = fmt.Sprintf("127.0.0.1:%d", port)
		if lastErr = p.waitHealthy(30 * time.Second); lastErr == nil {
			if lastErr = verifyListener(p.cmd.Process.Pid, port); lastErr == nil {
				return p, nil
			}
		}
		p.stop()
	}
	return nil, lastErr
}

func spawn(bin string, args []string, logPath string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Own process group: a terminal's SIGINT reaches only the benchmark,
	// which then stops the children itself. Pdeathsig kills them if the
	// benchmark dies without that chance.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, log: logPath, done: make(chan struct{})}
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*proc]bool)
	}
	live.procs[p] = true
	live.Unlock()
	go func() {
		cmd.Wait()
		logf.Close()
		live.Lock()
		delete(live.procs, p)
		live.Unlock()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

func (p *proc) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	for {
		if p.exited() {
			return fmt.Errorf("netemud %v exited before becoming healthy (log %s)", p.cmd.Args[1:], p.log)
		}
		resp, err := c.Get("http://" + p.addr + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.TrimSpace(string(body)) == "ok" {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("netemud on %s not healthy after %v (log %s)", p.addr, limit, p.log)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks for a graceful drain, then kills after a grace period, and
// returns once the process has been reaped.
func (p *proc) stop() error {
	if p.exited() {
		return nil
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		return nil
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("netemud on %s ignored SIGTERM for 10s; killed", p.addr)
	}
}

// verifyListener checks that pid itself holds the listening socket on
// port, so a stale netemud left on the port by some other run can never
// answer in its place.
func verifyListener(pid, port int) error {
	inode, err := listenInode(port)
	if err != nil {
		return err
	}
	fds, err := os.ReadDir(fmt.Sprintf("/proc/%d/fd", pid))
	if err != nil {
		return fmt.Errorf("reading fds of pid %d: %w", pid, err)
	}
	want := "socket:[" + inode + "]"
	for _, fd := range fds {
		if link, err := os.Readlink(fmt.Sprintf("/proc/%d/fd/%s", pid, fd.Name())); err == nil && link == want {
			return nil
		}
	}
	return fmt.Errorf("port %d is held by a process other than the spawned pid %d", port, pid)
}

// listenInode finds the socket inode listening on 127.0.0.1:port.
func listenInode(port int) (string, error) {
	f, err := os.Open("/proc/net/tcp")
	if err != nil {
		return "", err
	}
	defer f.Close()
	local := fmt.Sprintf("0100007F:%04X", port)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// sl local_address rem_address st tx_queue:rx_queue tr:tm->when retrnsmt uid timeout inode
		fields := strings.Fields(sc.Text())
		if len(fields) > 9 && fields[1] == local && fields[3] == "0A" {
			return fields[9], nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("no listener on 127.0.0.1:%d", port)
}

// vmHWM reads a process's peak resident set size in KiB.
func vmHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/PID/stat;
// Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// procCPU reads a process's user plus system CPU time in seconds.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name, field 2, is parenthesized and may hold spaces;
	// utime and stime are fields 14 and 15, the 12th and 13th after it.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return float64(utime+stime) / clockTicks, nil
}
