package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// cpuSeconds is the process's user plus system CPU time (rusage),
// which time stolen by a hypervisor does not inflate.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// minorFaults is the process's cumulative count of page faults served
// without I/O (rusage).
func minorFaults() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Minflt
}

// stealSeconds is the host's cumulative CPU steal time across all CPUs
// from /proc/stat, or 0 where it cannot be read.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// cpu user nice system idle iowait irq softirq steal ...
		if len(fields) > 8 && fields[0] == "cpu" {
			ticks, err := strconv.ParseFloat(fields[8], 64)
			if err != nil {
				return 0
			}
			return ticks / 100 // USER_HZ
		}
	}
	return 0
}

// rssBytes is the process's resident set (the second field of
// /proc/self/statm, in pages), or 0 where it cannot be read.
func rssBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// rssSampler tracks the peak resident set above a baseline by sampling
// it every 10 ms. The baseline is taken after a collection that returns
// free memory to the OS, once a workload's inputs and oracle answers are
// built, so the peak counts what the program's set-up and operations
// add, not the benchmark's own arrays.
type rssSampler struct {
	base, peak int64
	quit, done chan struct{}
	once       sync.Once
}

func startRSS() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{base: rssBytes(), quit: make(chan struct{}), done: make(chan struct{})}
	s.peak = s.base
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				s.peak = max(s.peak, rssBytes())
			}
		}
	}()
	return s
}

// stop ends sampling and waits for the sampler to exit; it may be
// called more than once.
func (s *rssSampler) stop() {
	s.once.Do(func() {
		close(s.quit)
		<-s.done
	})
}

// stopMB ends sampling and returns the peak growth in MB.
func (s *rssSampler) stopMB() float64 {
	s.stop()
	return float64(max(s.peak, rssBytes())-s.base) / (1 << 20)
}

// gcSample reads the runtime's cumulative GC and total CPU seconds and
// heap bytes allocated.
type gcSample struct{ gcCPU, totalCPU, allocBytes float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(m metrics.Sample) float64 {
		switch m.Value.Kind() {
		case metrics.KindFloat64:
			return m.Value.Float64()
		case metrics.KindUint64:
			return float64(m.Value.Uint64())
		}
		return 0
	}
	return gcSample{val(s[0]), val(s[1]), val(s[2])}
}

// window accumulates what timed spans cost: wall time, process CPU and
// the runtime's GC and allocation counters. Host steal is taken over
// the whole window, from open to close.
type window struct {
	wall, cpu, steal float64
	gc               gcSample
	faults           int64

	start  time.Time
	cpu0   float64
	gc0    gcSample
	steal0 float64
	flt0   int64
}

func openWindow() *window { return &window{steal0: stealSeconds(), flt0: minorFaults()} }

// resume starts a timed span; pause ends it and adds its costs.
func (w *window) resume() {
	w.start, w.cpu0, w.gc0 = time.Now(), cpuSeconds(), readGC()
}

func (w *window) pause() {
	w.wall += time.Since(w.start).Seconds()
	w.cpu += cpuSeconds() - w.cpu0
	g := readGC()
	w.gc.gcCPU += g.gcCPU - w.gc0.gcCPU
	w.gc.totalCPU += g.totalCPU - w.gc0.totalCPU
	w.gc.allocBytes += g.allocBytes - w.gc0.allocBytes
}

func (w *window) close() {
	w.steal = stealSeconds() - w.steal0
	w.faults = minorFaults() - w.flt0
}

// setupRepeats is how many times a run times its workload's set-up;
// setup_s is their median. The first repeat comes before the timed
// loop and the others at even steps through it (see setupDue), so the
// set-up figure samples the host over the whole run, as the loop's
// figures do, and not over one second of it.
const setupRepeats = 9

// setupDue reports whether the loop has reached the point of set-up
// repeat next, having run timed seconds of a run of total seconds.
func setupDue(next int, timed, total float64) bool {
	return next < setupRepeats && timed >= float64(next)*total/setupRepeats
}

// timeSetup times one set-up, from a collected heap, and collects its
// garbage afterwards, so the timed loop is not charged for it.
func (r *runStats) timeSetup(f func() error) error {
	runtime.GC()
	start := time.Now()
	err := f()
	r.setupS = append(r.setupS, time.Since(start).Seconds())
	runtime.GC()
	return err
}

// percentile returns the q-quantile (0..1) of xs by nearest rank; xs is
// sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
