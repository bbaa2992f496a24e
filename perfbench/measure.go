package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"themis/internal/telemetry"
)

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters is one scrape of the process registry as /metrics serves it:
// sample name with its rendered labels → value.
type counters map[string]float64

// scrape renders the default telemetry registry in Prometheus text format and
// parses the samples back, exactly what a scraper of /metrics would see.
func scrape() counters {
	var buf bytes.Buffer
	if err := telemetry.Default().WritePrometheus(&buf); err != nil {
		return counters{}
	}
	out := make(counters)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// family sums every series of the named metric.
func (c counters) family(name string) float64 {
	t := 0.0
	for k, v := range c {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// delta returns after−before for the named metric family.
func delta(before, after counters, name string) float64 {
	return after.family(name) - before.family(name)
}

// rssPeakMB returns the process's peak resident set size in MB.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// The host this benchmark was built on is a virtual machine whose
// neighbours at times take a large share of its CPUs ("steal"): a replay or
// pass measured then runs up to twice as long, for minutes on end. Units of
// work during which the host stole more than stealLimit of the CPU time are
// re-measured; after overtime × --seconds every unit counts, so a host that
// steals all the time still gets a result.
const (
	stealLimit = 0.03
	overtime   = 2
	// clockTicks is USER_HZ, the unit of /proc/stat.
	clockTicks = 100
)

// stealMeter measures the CPU time the host stole during one unit of work.
type stealMeter struct {
	start  int64
	t0     time.Time
	usable bool
}

// stealTicks reads the steal column of /proc/stat's cpu line.
func stealTicks() (int64, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	return v, err == nil
}

func startSteal() stealMeter {
	v, ok := stealTicks()
	return stealMeter{start: v, t0: time.Now(), usable: ok}
}

// quiet reports whether the host stole at most stealLimit of the CPU time
// available since the meter started (and at least allows two ticks, the
// counter's resolution on short units).
func (m stealMeter) quiet() bool {
	v, ok := stealTicks()
	if !m.usable || !ok {
		return true
	}
	avail := time.Since(m.t0).Seconds() * clockTicks * float64(runtime.NumCPU())
	return float64(v-m.start) <= math.Max(2, stealLimit*avail)
}

// goStats is a snapshot of the Go runtime's allocation and GC accounting.
type goStats struct {
	allocBytes uint64
	gcCycles   uint32
	gcCPU      float64 // cumulative GC CPU seconds (runtime estimate)
	totalCPU   float64 // cumulative CPU seconds available to the process
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	st := goStats{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		st.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		st.totalCPU = samples[1].Value.Float64()
	}
	return st
}

// goDelta accumulates runtime accounting over the measured parts of a run.
type goDelta struct {
	allocMB, gcCycles, gcCPU, totalCPU float64
}

func (d *goDelta) add(before, after goStats) {
	d.allocMB += float64(after.allocBytes-before.allocBytes) / (1 << 20)
	d.gcCycles += float64(after.gcCycles - before.gcCycles)
	d.gcCPU += after.gcCPU - before.gcCPU
	d.totalCPU += after.totalCPU - before.totalCPU
}

func (d *goDelta) merge(o goDelta) {
	d.allocMB += o.allocMB
	d.gcCycles += o.gcCycles
	d.gcCPU += o.gcCPU
	d.totalCPU += o.totalCPU
}

// report stores the per-round runtime metrics.
func (d goDelta) report(layer map[string]float64, rounds float64) {
	layer["go.alloc_mb_per_round"] = ratio(d.allocMB, rounds)
	layer["go.gc_cycles_per_round"] = ratio(d.gcCycles, rounds)
	layer["go.gc_cpu_frac"] = ratio(d.gcCPU, d.totalCPU)
}

// digest hashes a canonical text rendering of decisions or records.
func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// subSeed derives the i'th input seed of a run from its --seed, so one seed
// names a fixed set of generated inputs.
func subSeed(seed int64, i int) int64 {
	return seed*1_000_003 + int64(i)
}
