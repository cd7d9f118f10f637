package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minOpsForP99 is the op count below which a run carries no tail
// quantiles: with fewer, fewer than ten samples would lie beyond its p99.
const minOpsForP99 = 1000

// quantile returns the q-quantile of sorted (nearest rank). Failed ops
// are +Inf in the distribution, so they land in the upper tail.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// windowedQuantiles splits lat (in op order) into consecutive windows of
// at least minOpsForP99 ops and returns each window's p50, p90 and p99.
// The run reports the median across windows, so a burst of host noise
// shorter than half the run moves none of them, where it would move the
// tail of the pooled distribution.
func windowedQuantiles(lat []float64) (p50s, p90s, p99s []float64) {
	w := max(len(lat)/minOpsForP99, 1)
	for i := 0; i < w; i++ {
		win := sortedCopy(lat[i*len(lat)/w : (i+1)*len(lat)/w])
		p50s = append(p50s, quantile(win, 0.50))
		p90s = append(p90s, quantile(win, 0.90))
		p99s = append(p99s, quantile(win, 0.99))
	}
	return p50s, p90s, p99s
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// finite clamps +Inf (a failed op at a quantile) to the largest float,
// since JSON has no infinity.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is a point-in-time read of the Go runtime counters a
// window is charged with.
type runtimeSample struct {
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
	gcPauses   *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s := runtimeSample{cpu: cpuTime()}
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindUint64 {
		s.gcCycles = ms[1].Value.Uint64()
	}
	if ms[2].Value.Kind() == metrics.KindFloat64Histogram {
		s.gcPauses = ms[2].Value.Float64Histogram()
	}
	return s
}

// heapAllocBytes is the cumulative heap allocation counter alone, cheap
// enough to read around a single call.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// window is the runtime cost charged between two samples.
type window struct {
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
	// pauseP99 is the p99 GC pause within the window, in ms (bucket
	// upper bound of the runtime histogram).
	pauseP99 float64
	// rssResetErr is why the peak-RSS mark could not be reset when the
	// window began; nil when the peak covers the window alone.
	rssResetErr error
}

func windowBetween(a, b runtimeSample) window {
	w := window{cpu: b.cpu - a.cpu, allocBytes: b.allocBytes - a.allocBytes, gcCycles: b.gcCycles - a.gcCycles}
	if a.gcPauses != nil && b.gcPauses != nil && len(a.gcPauses.Counts) == len(b.gcPauses.Counts) {
		var total uint64
		counts := make([]uint64, len(b.gcPauses.Counts))
		for i := range counts {
			counts[i] = b.gcPauses.Counts[i] - a.gcPauses.Counts[i]
			total += counts[i]
		}
		if total > 0 {
			rank := uint64(math.Ceil(0.99 * float64(total)))
			var seen uint64
			for i, c := range counts {
				seen += c
				if seen >= rank {
					up := b.gcPauses.Buckets[i+1]
					if math.IsInf(up, 1) {
						up = b.gcPauses.Buckets[i]
					}
					w.pauseP99 = up * 1000
					break
				}
			}
		}
	}
	return w
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// the peak read at the end covers only what came after (Linux ≥ 4.0).
// Where the kernel refuses, the peak covers set-up too.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
