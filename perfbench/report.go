package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// metricSpec is one metric the benchmark reports. BENCHMARK.json lists the
// same names and units; the tests hold the two together.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees, reported by the
// untraced run of every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"write_p50_ms", "ms", "lower"},
	{"quality", "ratio", "higher"},
	{"ok_frac", "ratio", "higher"},
	{"rss_p50_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics of single layers. A workload that
// never runs a layer reports its metrics as 0.
var perLayer = []metricSpec{
	{"detect.self_ms", "ms", "lower"},
	{"detect.parallel_eff", "ratio", "higher"},
	{"hdface.prepare_level_ms", "ms", "lower"},
	{"hdface.score_grid_us", "us", "lower"},
	{"hdface.score_fallback_us", "us", "lower"},
	{"hdface.fallback_ratio", "ratio", "lower"},
	{"hdface.feature_ms", "ms", "lower"},
	{"hdhog.gradient_ns", "ns", "lower"},
	{"hdhog.magnitude_ns", "ns", "lower"},
	{"hdhog.bin_ns", "ns", "lower"},
	{"hdhog.cell_us", "us", "lower"},
	{"hdhog.window_feature_us", "us", "lower"},
	{"hdhog.fused_score_us", "us", "lower"},
	{"hdhog.cell_allocs", "count", "lower"},
	{"hdhog.feature_allocs", "count", "lower"},
	{"stoch.sqrts", "count", "lower"},
	{"stoch.compares", "count", "lower"},
	{"stoch.averages", "count", "lower"},
	{"stoch.decorrs", "count", "lower"},
	{"stoch.perm_words", "count", "lower"},
	{"stoch.words", "count", "lower"},
	{"stoch.sqrt_ns", "ns", "lower"},
	{"stoch.sub_ns", "ns", "lower"},
	{"stoch.compare_ns", "ns", "lower"},
	{"stoch.decorrelate_shift_ns", "ns", "lower"},
	{"hdc.score_us", "us", "lower"},
	{"hdc.score_binary_us", "us", "lower"},
	{"hdc.update_ms", "ms", "lower"},
	{"serve.queue_wait_ms", "ms", "lower"},
	{"serve.batch_wait_ms", "ms", "lower"},
	{"serve.inference_ms", "ms", "lower"},
	{"serve.batch_size", "count", "higher"},
	{"serve.rejected", "count", "lower"},
	{"serve.outside_ms", "ms", "lower"},
	{"serve.stream_queue_wait_ms", "ms", "lower"},
	{"tenant.hit_ratio", "ratio", "higher"},
	{"tenant.evictions", "count", "lower"},
	{"tenant.rounds", "count", "higher"},
	{"tenant.round_ms", "ms", "lower"},
	{"tenant.append_ms", "ms", "lower"},
	{"track.step_us", "us", "lower"},
	{"go.alloc_bytes_per_op", "bytes", "lower"},
	{"go.mallocs_per_op", "count", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"loadgen.lag_ms", "ms", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead", "ratio", "lower"},
	{"host.probe_ms", "ms", "lower"},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one run's metrics, checks and per-phase counts, and
// prints the human-readable lines that precede the result line.
type report struct {
	w io.Writer
	// stopMemory ends the resident-set sampling that starts once the
	// set-ups are done; measured calls it.
	stopMemory func() float64
	values     map[string]float64
	checks     int
	failed     []string
	attempt    int64
	fail       int64
}

func newReport(w io.Writer) *report {
	return &report{w: w, values: map[string]float64{}}
}

func (r *report) printf(format string, args ...any) { fmt.Fprintf(r.w, format+"\n", args...) }

// set records a metric value; only catalogue names reach the result line.
func (r *report) set(name string, v float64) { r.values[name] = v }

// check records one correctness check.
func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks++
	status := "ok"
	if !ok {
		status = "FAILED"
		r.failed = append(r.failed, name)
	}
	r.printf("check %-34s %-6s %s", name, status, fmt.Sprintf(format, args...))
}

// phase prints one phase's operation counts and adds them to the result
// line's attempted and failed totals.
func (r *report) phase(name string, attempted, failed int64) {
	r.printf("phase %-24s attempted %6d  succeeded %6d  failed %4d", name, attempted, attempted-failed, failed)
	r.attempt += attempted
	r.fail += failed
}

// result assembles the result line for the run's metric list.
func (r *report) result(specs []metricSpec) result {
	res := result{
		Correct:   len(r.failed) == 0 && r.checks > 0,
		Attempted: r.attempt,
		Failed:    r.fail,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range specs {
		res.Metrics[m.Name] = metricValue{Value: r.values[m.Name], Unit: m.Unit}
	}
	return res
}

// writeMetrics prints the run's metric table.
func (r *report) writeMetrics(specs []metricSpec) {
	for _, m := range specs {
		r.printf("metric %-30s %16.6g %-6s (%s is better)", m.Name, r.values[m.Name], m.Unit, m.Better)
	}
}

// provenance prints where and on what a result was measured.
func (r *report) provenance(o options) {
	r.printf("provenance commit=%s go=%s gomaxprocs=%d nproc=%d cpu=%q",
		gitDescribe(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	r.printf("provenance workload=%s seed=%d seconds=%g trace=%t", o.workload, o.seed, o.seconds, o.trace)
	r.printf("provenance scratch=%s fs=%s tenant_store=memory", o.out, fsType(o.out))
}

// gitDescribe names the source commit when the checkout is a git work
// tree. Git looks no higher than the checkout, so a checkout that is not a
// work tree reports "unknown" rather than an enclosing repository's commit.
func gitDescribe() string {
	cmd := exec.Command("git", "describe", "--always", "--dirty")
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cpuModel reads the first CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rssMB reads the process's resident set in MiB.
func rssMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// rssEvery is how often the resident set is sampled while a run measures.
const rssEvery = 20 * time.Millisecond

// measureMemory samples the resident set from now until the returned stop
// function is called, which reports the median sample in MiB: the
// footprint of the measured phases, without the set-ups before them. (The
// largest sample swung by 2x between runs with where garbage collections
// fell; the median holds.) Where /proc is unavailable it reports the Go
// runtime's mapped memory.
func measureMemory() (stop func() float64) {
	quit := make(chan struct{})
	samples := make(chan []float64)
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		var got []float64
		for {
			if v, ok := rssMB(); ok {
				got = append(got, v)
			}
			select {
			case <-tick.C:
			case <-quit:
				samples <- got
				return
			}
		}
	}()
	return func() float64 {
		close(quit)
		if got := <-samples; len(got) > 0 {
			return median(got)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
}

// goSample is a reading of the Go runtime's cumulative allocation and CPU
// counters.
type goSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGo() goSample {
	ss := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return goSample{
		allocBytes:   uint64(val(ss[0])),
		allocObjects: uint64(val(ss[1])),
		gcCPU:        val(ss[2]),
		totalCPU:     val(ss[3]),
	}
}

// setGo reports the runtime's allocation and GC share between two readings
// taken around ops operations.
func (r *report) setGo(a, b goSample, ops int) {
	if ops <= 0 {
		return
	}
	r.set("go.alloc_bytes_per_op", float64(b.allocBytes-a.allocBytes)/float64(ops))
	r.set("go.mallocs_per_op", float64(b.allocObjects-a.allocObjects)/float64(ops))
	r.set("go.gc_cpu_frac", ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU))
}

// setups is how many times each run sets its workload up; setup_s is the
// median.
const setups = 5

// repeatSetup runs a workload's set-up `setups` times, closing all but the
// last, and returns the last; setup_s is the median set-up time. Every
// set-up must produce the same model fingerprint: training is deterministic.
func repeatSetup[T interface {
	fingerprint() uint64
	close()
}](r *report, setup func() (T, error)) (T, error) {
	var last T
	var times []float64
	var fps []uint64
	for i := 0; i < setups; i++ {
		if i > 0 {
			last.close()
		}
		start := time.Now()
		s, err := setup()
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(start).Seconds())
		fps = append(fps, s.fingerprint())
		last = s
	}
	same := true
	for _, f := range fps {
		same = same && f == fps[0]
	}
	r.check("setup_deterministic", same, "%d set-ups, model fingerprints %x", setups, fps)
	r.printf("setup times s %v", times)
	r.set("setup_s", median(times))
	// Return the set-ups' garbage to the OS, so the resident set sampled
	// from here on is the measured phases' own.
	debug.FreeOSMemory()
	r.stopMemory = measureMemory()
	return last, nil
}

// measured ends the resident-set sampling at the end of a workload's
// measured phase and reports its median.
func (r *report) measured() {
	if r.stopMemory != nil {
		r.set("rss_p50_mb", r.stopMemory())
		r.stopMemory = nil
	}
}
