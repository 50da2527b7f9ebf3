package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit mask covering the first 1024 CPUs.
type cpuMask [16]uint64

func (m cpuMask) cpus() []int {
	var out []int
	for c := 0; c < 64*len(m); c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			out = append(out, c)
		}
	}
	return out
}

// affinity returns the CPUs the calling thread may run on.
func affinity() (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

// pinProcess moves every thread of this process onto m. Threads the Go
// runtime starts later are cloned from pinned ones and inherit the mask.
func pinProcess(m cpuMask) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may exit between the listing and the call.
		if err := setAffinity(tid, m); err != nil && !errors.Is(err, syscall.ESRCH) {
			return err
		}
	}
	return nil
}

// placement is where the run executes: confined to the last of the CPUs the
// process was started on (away from where interrupts land by default), or,
// when it was given a single CPU, left alone.
type placement struct {
	start cpuMask // the mask the process started with
	cpu   int     // the CPU the run is confined to; -1: not confined
}

func newPlacement() (*placement, error) {
	m, err := affinity()
	if err != nil {
		return nil, err
	}
	p := &placement{start: m, cpu: -1}
	if cpus := m.cpus(); len(cpus) > 1 {
		p.cpu = cpus[len(cpus)-1]
	}
	return p, nil
}

// confine puts the whole run — every harness thread, and through
// inheritance every child — on one CPU with one P. On the reference host the
// two vCPUs stop running in parallel for minutes at a time (a two-thread
// join takes twice as long while a one-thread join beside it is unchanged),
// and a wake-up across CPUs is the least repeatable part of a loopback round
// trip; work that never needs a second CPU sees neither (README "Noise
// protocol").
func (p *placement) confine() error {
	if p.cpu < 0 {
		return nil
	}
	runtime.GOMAXPROCS(1)
	var one cpuMask
	one[p.cpu/64] = 1 << (p.cpu % 64)
	return pinProcess(one)
}

// release undoes confine: the CPUs the process was started on, one P each.
func (p *placement) release() error {
	if p.cpu < 0 {
		return nil
	}
	runtime.GOMAXPROCS(len(p.start.cpus()))
	return pinProcess(p.start)
}

// procStatus returns one field of /proc/<pid>/status, e.g. VmHWM.
func procStatus(pid int, key string) (string, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("/proc/%d/status: no %s", pid, key)
}

// peakRSSMB reads the child's resident high-water mark.
func peakRSSMB(pid int) (float64, error) {
	v, err := procStatus(pid, "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	return kb / 1024, err
}

// cpuSeconds returns the CPU time the process has used so far: the sum of
// its threads' on-CPU nanoseconds from schedstat, or, on a kernel built
// without scheduler statistics, utime+stime from stat in 10 ms ticks.
func cpuSeconds(pid int) (float64, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var ns float64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited since the listing
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			v, _ := strconv.ParseFloat(f[0], 64)
			ns += v
		}
	}
	if ns > 0 {
		return ns / 1e9, nil
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted after it.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu times", pid)
	}
	const userHz = 100 // on every Linux architecture Go supports
	return (utime + stime) / userHz, nil
}

// cpuTicks returns the steal ticks and all ticks of the machine's CPUs so
// far, from the first line of /proc/stat: how much of the run the
// hypervisor gave to someone else.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

var weatherSink uint64

// weather times two fixed loops, so that a report shows what the host was
// like when it was made: 60 M dependent multiply-adds (milliseconds; follows
// the core's clock and its sibling), and a pointer chase over 32 MB
// (nanoseconds per step; follows the neighbours' memory traffic).
func weather() (aluMS, chaseNS float64) {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 60_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	aluMS = float64(time.Since(t0)) / 1e6
	buf := make([]uint32, 1<<23)
	for i := range buf {
		buf[i] = uint32((i*7919 + 13) % len(buf))
	}
	const steps = 500_000
	t0 = time.Now()
	j := uint32(0)
	for i := 0; i < steps; i++ {
		j = buf[j]
	}
	chaseNS = float64(time.Since(t0)) / steps
	weatherSink += x + uint64(j)
	return aluMS, chaseNS
}

func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseFloat(strings.Fields(string(b))[0], 64)
	return v
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// commitOf names the code under test: the git HEAD when root is a git
// work tree, "unversioned" in an exported checkout.
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unversioned"
	}
	return strings.TrimSpace(string(out))
}

// environment is the block every output carries, so a number can be traced
// to the host and settings that produced it.
func environment(root string, seed int64, pl *placement, load float64) [][2]string {
	placed := "unpinned (started on one CPU)"
	if pl.cpu >= 0 {
		placed = fmt.Sprintf("harness and children on CPU %d of %v, GOMAXPROCS 1", pl.cpu, pl.start.cpus())
	}
	return [][2]string{
		{"go", runtime.Version()},
		{"nproc", strconv.Itoa(len(pl.start.cpus()))},
		{"cpu", cpuModel()},
		{"kernel", kernelRelease()},
		{"commit", commitOf(root)},
		{"seed", strconv.FormatInt(seed, 10)},
		{"placement", placed},
		{"loadavg1_at_start", strconv.FormatFloat(load, 'f', 2, 64)},
		{"fsync", "interval 100ms"},
		{"log", "-log-level info -log-format text"},
	}
}

// copyFile copies src to dst; restarts run on copies of the killed state.
func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Type().IsRegular() {
			if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}
