// Command perfbench is speckit's benchmark: it runs one workload of the
// paper campaign, the exact L3 sweep or the served fleet, checks every
// output, and prints its metrics by name with their units. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 a separate traced run reports the
// per-layer ones. Every run appends a record to
// .bench_build/perfbench/records.jsonl under the working directory,
// keyed by CPU model, core count, Go version, commit and seed.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 50 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// run is one benchmark invocation's state and result.
type run struct {
	workload string
	seed     uint64
	budget   time.Duration
	trace    bool
	dir      string // scratch and records, inside the working directory

	attempted, failed int
	metrics           map[string]metric
	// samples collect a metric's per-measurement values, lat a serve
	// phase's pooled request latencies; the run reports their medians
	// and percentiles. scaled marks the samples taken to reference
	// seconds: host times (+1) and throughputs per host second (-1).
	// probes are the host-speed probe's times in ms.
	samples map[string][]float64
	scaled  map[string]int
	units   map[string]string
	lat     map[string][]float64
	probes  []float64
	// facts are recorded with the run but are not metrics: digests,
	// chosen subset sizes, host-time figures, executors not measured.
	facts map[string]any
	// lastServe is the last serve round, whose responses the
	// serving-layer timings reuse.
	lastServe *serveResult
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// op counts one operation, failed when err is non-nil.
func (r *run) op(err error, format string, args ...any) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "FAILED: %s: %v\n", fmt.Sprintf(format, args...), err)
	}
}

// check counts one output check, failed when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "FAILED CHECK: %s\n", fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// sample records one measurement of a metric reported as the median of
// its samples.
func (r *run) sample(name, unit string, v float64) {
	r.samples[name] = append(r.samples[name], v)
	r.units[name] = unit
}

// duration records one host-time measurement in s; the run reports the
// median in reference seconds.
func (r *run) duration(name, unit string, v float64) {
	r.sample(name, unit, v)
	r.scaled[name] = 1
}

// rate records one throughput measurement, work per CPU-second of the
// process; the run reports the median per reference second.
func (r *run) rate(name, unit string, v float64) {
	r.sample(name, unit, v)
	r.scaled[name] = -1
}

// pool adds a serve phase's request latencies to the phase's pool.
func (r *run) pool(phase string, s []served) {
	for i := range s {
		r.lat[phase] = append(r.lat[phase], s[i].latency.Seconds())
	}
}

// settle turns the samples and latency pools into metrics. Times,
// throughputs and median latencies are taken to reference seconds by
// the run's median probe time; their host-time figures are kept as
// facts. Each phase's p90 latency is a fact, not a metric: on a shared
// host the tail moves with the host's load by more than the
// benchmark's bounds.
func (r *run) settle() {
	probe := medianOf(r.probes)
	refPerHost := probeNominalMS / probe // reference seconds per host second
	r.fact("host.probe_ms", probe)
	for name, v := range r.samples {
		m := medianOf(v)
		switch r.scaled[name] {
		case 1:
			r.fact("host."+name, m)
			m *= refPerHost
		case -1:
			r.fact("host."+strings.TrimSuffix(name, "_ref_s")+"_cpu_s", m)
			m /= refPerHost
		}
		r.set(name, r.units[name], m)
	}
	for phase, v := range r.lat {
		p50 := quantile(v, 0.5)
		r.fact("host."+phase+"_p50_s", p50)
		r.fact("host."+phase+"_p90_s", quantile(v, 0.9))
		r.set(phase+"_p50_ref_s", "ref-s", p50*refPerHost)
	}
}

func (r *run) fact(name string, v any) { r.facts[name] = v }

// repeatFact records a digest that must read the same on every run of
// one commit, workload and seed; writeRecord checks it against earlier
// records.
func (r *run) repeatFact(name, v string) {
	if prev, ok := r.facts[name]; ok {
		r.check(prev == v, "%s differs within the run: %v then %v", name, prev, v)
	}
	r.facts[name] = v
}

// shuffle permutes n items in an order fixed by the seed and tag, so
// each phase's order is the same whichever phases ran before it.
func (r *run) shuffle(tag string, n int, swap func(i, j int)) {
	rand.New(rand.NewPCG(r.seed, hash64(tag))).Shuffle(n, swap)
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// windowOffset is the seed's instruction-window offset: up to 15Ki
// instructions in 1Ki steps, so each seed simulates different streams
// while the work per run stays within about 1.5%.
func (r *run) windowOffset() uint64 {
	return (hash64("window/"+strconv.FormatUint(r.seed, 10)) % 16) * 1024
}

func main() {
	workload := flag.String("workload", "", "campaign or serve")
	seed := flag.Uint64("seed", 1, "workload seed: window offsets and pair and request order")
	seconds := flag.Int("seconds", 50, "measurement budget; a run makes at least one pass")
	traceFlag := flag.Int("trace", 0, "1 runs the separate traced run and reports per-layer metrics")
	flag.Parse()

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		trace:    *traceFlag == 1,
		dir:      filepath.Join(cwd, ".bench_build", "perfbench"),
		metrics:  map[string]metric{},
		samples:  map[string][]float64{},
		scaled:   map[string]int{},
		units:    map[string]string{},
		lat:      map[string][]float64{},
		facts:    map[string]any{},
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		fatal(err)
	}
	w, ok := workloads[r.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want campaign or serve)", r.workload))
	}
	unmeasured(r)
	if err := runWorkload(r, w); err != nil {
		fatal(err)
	}
	if !r.trace {
		r.set("peak_rss_mib", "MiB", peakRSSMiB())
	}
	if err := writeRecord(r, cwd); err != nil {
		fatal(err)
	}
	printResult(r)
}

// unmeasured names the executors this benchmark does not drive, so
// their absence is printed on every run instead of passing silently.
func unmeasured(r *run) {
	notes := []string{
		"machine.RunParallel: its K=8 speedup floor needs >= 8 cores; " +
			"this host has " + strconv.Itoa(runtime.NumCPU()) + " (BENCH_kernel.json gates it)",
		"machine.RunShared: the rate-mode and topology path is not driven by any workload",
	}
	for _, n := range notes {
		fmt.Println("not measured:", n)
	}
	r.fact("not_measured", notes)
}

func printResult(r *run) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if p, ok := r.facts["host.probe_ms"]; ok {
		fmt.Printf("host probe %.4g ms, %.4g ms on the reference host; host-time figures are in the run record\n", p, probeNominalMS)
		for _, phase := range []string{"cold", "warm", "store"} {
			fmt.Printf("%-36s %14.6g s (host time, not a metric)\n", phase+"_p90", r.facts["host."+phase+"_p90_s"])
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// cpuTime is the CPU time the process has used, in user and kernel mode
// on all its threads. Throughput is measured against it: the kernel
// does not count time the host takes a core away (steal) or time spent
// waiting for a core, so it reads the same on a busy host as on an idle
// one, where it equals the wall time of single-pair work.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
