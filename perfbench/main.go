// Command perfbench is lwcomp's end-to-end benchmark. It runs one
// workload against the program's public API for a fixed time, checks
// every answer against an oracle computed apart from the program, and
// prints one JSON result line:
//
//	perfbench --workload serve-mixed --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics BENCHMARK.json names;
// --trace 1 runs the same workload and then replays its operations
// with each layer's call timed on its own, reporting the per-layer
// metrics. --steady <workload> runs two sets of ten runs of one
// workload and reports whether they agree within BENCHMARK.json's
// bounds.
// README.md describes the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the command reads: metric names,
// units and bounds.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// config is one run's parameters.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string // scratch directory for containers, removed after the run
}

// runStats is what a workload hands back: everything the end-to-end
// metrics are computed from, plus the per-layer figures of a traced run.
type runStats struct {
	setupS    []float64
	latMS     []float64
	attempted int64
	failed    int64
	known     int64             // failures that are errWrappedSum
	failures  map[string]string // first message per kind of failure
	failKinds map[string]int
	win       *window
	peakRSSMB float64 // resident growth over the inputs (rssSampler)
	stored    int64   // container bytes on disk
	user      int64   // user bytes (8 per value) those containers hold
	layers    map[string]float64
}

// fail records a failed operation, keeping the first message of each
// kind (the text before its first colon).
func (r *runStats) fail(err error) {
	r.failed++
	if errors.Is(err, errWrappedSum) {
		r.known++
	}
	if r.failures == nil {
		r.failures, r.failKinds = map[string]string{}, map[string]int{}
	}
	msg := err.Error()
	kind, _, _ := strings.Cut(msg, ":")
	if _, seen := r.failures[kind]; !seen {
		if len(msg) > 300 {
			msg = msg[:300] + "..."
		}
		r.failures[kind] = msg
	}
	r.failKinds[kind]++
}

var workloads = map[string]func(config) (*runStats, error){
	"serve-mixed": runServeMixed,
	"scan-cold":   runScanCold,
	"ingest":      runIngest,
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	workload := flag.String("workload", "", "workload to run: serve-mixed, scan-cold or ingest")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	steady := flag.String("steady", "", "run two sets of ten runs of this workload and compare them")
	flag.Parse()

	sp, err := readSpec()
	if err != nil {
		return err
	}
	if *steady != "" {
		return steadiness(sp, *steady, *seconds)
	}
	run, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("data-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	st, err := run(config{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir})
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	res, err := report(sp, st, *trace == 1)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	for kind, msg := range st.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %d failed like: %s\n", st.failKinds[kind], msg)
	}
	// Figures too unsteady on a shared host to gate on, printed so a
	// noisy host can be told apart from a noisy program.
	fmt.Printf("host: steal_s=%.3f process_cpu_s=%.3f wall_s=%.3f minor_faults=%d ops=%d ops_per_s=%.1f op_p99_ms=%.3f\n",
		st.win.steal, st.win.cpu, st.win.wall, st.win.faults, st.attempted,
		float64(st.attempted)/st.win.wall, percentile(st.latMS, 0.99))
	if *trace == 1 {
		// The traced run's own loop is the untraced one; comparing these
		// with an untraced run's metrics gives the tracing overhead.
		e2e := endToEnd(st)
		keys := make([]string, 0, len(e2e))
		for k := range e2e {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Print("traced loop:")
		for _, k := range keys {
			fmt.Printf(" %s=%.4g", k, e2e[k])
		}
		fmt.Println()
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// readSpec reads BENCHMARK.json from the directory the command runs in.
func readSpec() (*spec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

// endToEnd computes the end-to-end metrics from a run's stats.
func endToEnd(st *runStats) map[string]float64 {
	return map[string]float64{
		"setup_s":                    median(st.setupS),
		"op_p50_ms":                  percentile(st.latMS, 0.50),
		"ops_per_cpu_s":              float64(st.attempted) / st.win.cpu,
		"stored_bytes_per_user_byte": float64(st.stored) / float64(st.user),
		"peak_rss_mb":                st.peakRSSMB,
	}
}

// report turns a run's stats into the result line: the end-to-end
// metrics, or with trace the per-layer ones, each named and unit-ed as
// BENCHMARK.json says. A metric the run did not produce is an error.
// The run is correct only if every failure is the known wrapped sum.
func report(sp *spec, st *runStats, trace bool) (*result, error) {
	if st.attempted == 0 {
		return nil, errors.New("no operation attempted")
	}
	values, names := endToEnd(st), sp.EndToEnd
	if trace {
		values, names = st.layers, sp.PerLayer
	}
	res := &result{Correct: st.failed == st.known, Attempted: st.attempted, Failed: st.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, m := range names {
		v, ok := values[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("run produced no value for %v", missing)
	}
	return res, nil
}
