package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds returns the process's user+system CPU time (getrusage). It
// counts only cycles this process ran, so unlike wall time it does not
// grow when the hypervisor steals the vCPU from under it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// clock is a wall-clock and process-CPU reading taken together.
type clock struct {
	wall time.Time
	cpu  float64
}

func now() clock { return clock{wall: time.Now(), cpu: cpuSeconds()} }

// since returns the wall and CPU seconds elapsed since c.
func (c clock) since() (wall, cpu float64) {
	n := now()
	return n.wall.Sub(c.wall).Seconds(), n.cpu - c.cpu
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// cpuTicks is the machine-wide "cpu" line of /proc/stat.
type cpuTicks struct {
	busy, steal uint64
}

// readCPUTicks reads the aggregate CPU tick counters; busy counts every
// non-idle state including steal.
func readCPUTicks() (cpuTicks, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var v [8]uint64
		for i := range v {
			if v[i], err = strconv.ParseUint(fields[i+1], 10, 64); err != nil {
				return cpuTicks{}, fmt.Errorf("/proc/stat: %w", err)
			}
		}
		// user nice system idle iowait irq softirq steal
		return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7], steal: v[7]}, nil
	}
	if err := sc.Err(); err != nil {
		return cpuTicks{}, err
	}
	return cpuTicks{}, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

// stealShare is the share of busy ticks between a and b that the
// hypervisor stole; 0 when nothing ran or the counters are unreadable.
func stealShare(a, b cpuTicks) float64 {
	if b.busy <= a.busy {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.busy-a.busy)
}

// memSample is the runtime's allocation and GC counters at one instant,
// or the difference between two instants.
type memSample struct {
	totalAlloc, mallocs, gcCycles uint64
	// gcCPU and usedCPU are the runtime's GC and non-idle CPU seconds.
	gcCPU, usedCPU float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	var v [3]float64
	for i, m := range cpuMetrics {
		if m.Value.Kind() == metrics.KindFloat64 {
			v[i] = m.Value.Float64()
		}
	}
	return memSample{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcCycles: uint64(ms.NumGC), gcCPU: v[0], usedCPU: v[1] - v[2]}
}

func (b memSample) minus(a memSample) memSample {
	return memSample{
		totalAlloc: b.totalAlloc - a.totalAlloc, mallocs: b.mallocs - a.mallocs, gcCycles: b.gcCycles - a.gcCycles,
		gcCPU: b.gcCPU - a.gcCPU, usedCPU: b.usedCPU - a.usedCPU,
	}
}

func (b memSample) plus(a memSample) memSample {
	return memSample{
		totalAlloc: b.totalAlloc + a.totalAlloc, mallocs: b.mallocs + a.mallocs, gcCycles: b.gcCycles + a.gcCycles,
		gcCPU: b.gcCPU + a.gcCPU, usedCPU: b.usedCPU + a.usedCPU,
	}
}

// memDelta is what a phase allocated and collected per call.
type memDelta struct {
	AllocMB   float64 `json:"alloc_mb"`
	Mallocs   float64 `json:"mallocs"`
	GCCycles  float64 `json:"gc_cycles"`
	GCCPUFrac float64 `json:"gc_cpu_frac"` // share of the phase's used CPU spent in GC
}

// perCall spreads a summed difference over calls operations.
func (d memSample) perCall(calls int) memDelta {
	n := float64(max(calls, 1))
	out := memDelta{
		AllocMB:  float64(d.totalAlloc) / (1 << 20) / n,
		Mallocs:  float64(d.mallocs) / n,
		GCCycles: float64(d.gcCycles) / n,
	}
	if d.usedCPU > 0 {
		out.GCCPUFrac = d.gcCPU / d.usedCPU
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailMinBeyond is how many samples must lie beyond the reported tail
// percentile, so the tail is never read off one or two outliers.
const tailMinBeyond = 10

// tail returns the highest whole percentile p with at least
// tailMinBeyond samples beyond it and its nearest-rank value; ok is false
// when there are too few samples for any.
func tail(xs []float64) (p int, v float64, ok bool) {
	n := len(xs)
	if n <= tailMinBeyond {
		return 0, 0, false
	}
	p = 100 * (n - tailMinBeyond) / n
	rank := int(math.Ceil(float64(p) * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return p, s[rank-1], true
}
