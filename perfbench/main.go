// Command perfbench is Borges's benchmark. It measures both jobs of the
// system end to end, building a mapping from an on-disk corpus with
// the borges CLI and serving it with borgesd under open-loop traffic,
// and, in a separate traced run, times each layer by calling the
// modules' public functions from this package.
//
// Run it through run.sh from the repository root, which builds the
// binaries under test first:
//
//	bash perfbench/run.sh --workload cold_point --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object with the metrics
// BENCHMARK.json names for the mode: end_to_end with --trace 0,
// per_layer with --trace 1. Lines before it list every metric with its
// unit. Any failed correctness check makes the command exit 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workloads pair a build with a serving mix. Every workload reports
// every end-to-end metric, so each run does both jobs: the CLI builds
// for the first half of the window, then borgesd serves for the second.
var workloads = map[string]struct {
	warm  bool // builds add -cache-dir on a disk cache set-up filled
	mixed bool // serve_mixed traffic instead of serve_point
}{
	"cold_point": {},
	"warm_mixed": {warm: true, mixed: true},
}

// config is one benchmark invocation.
type config struct {
	workload string
	warm     bool
	mixed    bool
	seed     int64
	seconds  int
	trace    bool
	scale    float64
	mix      mix
	borges   string // binaries under test
	borgesd  string
	out      string // everything the run writes lives under here
	work     string // per-run scratch, emptied at start and end
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var trace int
	var bin string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the corpus and every request are drawn from it")
	flag.IntVar(&cfg.seconds, "seconds", 24, "measured time per run, split evenly between building and serving")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.Float64Var(&cfg.scale, "scale", 1.0, "corpus scale (1.0 = paper scale)")
	cfg.mix = defaultMix
	flag.Float64Var(&cfg.mix.zipfS, "zipf-s", defaultMix.zipfS, "Zipf exponent of /v1/as key popularity (> 1)")
	flag.Int64Var(&cfg.mix.searchEvery, "search-every", defaultMix.searchEvery, "serve_mixed: one request in this many is a /v1/search")
	flag.Int64Var(&cfg.mix.orgEvery, "org-every", defaultMix.orgEvery, "serve_mixed: one request in this many is a /v1/org")
	flag.IntVar(&cfg.mix.bulkLines, "bulk-lines", defaultMix.bulkLines, "lines per /v1/bulk stream")
	flag.StringVar(&bin, "bin", "", "directory holding the borges and borgesd binaries")
	flag.StringVar(&cfg.out, "out", "", "directory the benchmark writes to")
	flag.Parse()
	if bin == "" || cfg.out == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -out, -seconds >= 1 and -trace 0|1; run through perfbench/run.sh")
		return 2
	}
	if m := cfg.mix; m.zipfS <= 1 || m.searchEvery < 1 || m.orgEvery < 1 || m.bulkLines < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need -zipf-s > 1 and -search-every, -org-every, -bulk-lines >= 1")
		return 2
	}
	cfg.trace = trace == 1
	cfg.borges = filepath.Join(bin, "borges")
	cfg.borgesd = filepath.Join(bin, "borgesd")
	cfg.work = filepath.Join(cfg.out, "work")

	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w, ok := workloads[cfg.workload]
	if !ok || !spec.hasWorkload(cfg.workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	cfg.warm, cfg.mixed = w.warm, w.mixed

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.RemoveAll(cfg.work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)

	rep := &report{}
	chk := &checks{}
	if cfg.trace {
		err = runTraced(ctx, cfg, spec.PerLayer, rep, chk)
	} else {
		err = runEndToEnd(ctx, cfg, rep, chk)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	names := spec.EndToEnd
	if cfg.trace {
		names = spec.PerLayer
	}
	return rep.print(cfg, names, chk)
}

// rounds is how many times a run alternates building and serving.
// Spreading each job's samples over the whole run, instead of one
// block each, halves the share of them a burst of load from elsewhere
// on the machine can reach.
const rounds = 3

// runEndToEnd is the untraced run against the shipped binaries: set-up
// three times, then rounds of CLI builds back to back followed by
// borgesd under the workload's traffic, each half of the window split
// evenly over the rounds.
func runEndToEnd(ctx context.Context, cfg config, rep *report, chk *checks) error {
	f, setupSecs, err := setUpRepeated(ctx, cfg, 3, chk)
	if err != nil {
		return err
	}
	rep.add("setup_s", "s", median(setupSecs))
	slice := time.Duration(cfg.seconds) * time.Second / (2 * rounds)

	// One daemon serves every round and stays resident, idle, while the
	// builds run, so its peak RSS covers the whole run's traffic. The
	// other cold starts are timed in each round, on processes that are
	// stopped again.
	res := &serveResult{}
	d, cold, err := startDaemon(ctx, cfg.borgesd, "-snapshot-in", f.full, "-delta-in", f.deltaPath)
	chk.expect(err == nil, "starting borgesd: %v", err)
	if err != nil {
		return err
	}
	defer d.stop()
	res.coldStarts = append(res.coldStarts, ms(cold))
	s := newSession(d, f, chk, cfg.mix)
	defer s.close()

	var builds []buildRun
	for r := range rounds {
		runs, err := measureBuilds(ctx, cfg, f, chk, slice)
		if err != nil {
			return err
		}
		builds = append(builds, runs...)
		if err := coldStartsOnce(ctx, cfg, f, chk, coldStarts/rounds, res); err != nil {
			return err
		}
		if err := s.serveRound(ctx, cfg, slice, r, res); err != nil {
			return err
		}
	}
	if res.rssMB, err = peakRSSMB(d.pid()); err != nil {
		return err
	}
	addBuildMetrics(rep, builds)
	addServeMetrics(rep, res)
	return nil
}

// spec is the part of BENCHMARK.json the benchmark reads: which
// metrics the result line carries in each mode.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// checks counts operations and correctness failures. It is shared by
// every goroutine of a run.
type checks struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	problems  []string
}

// pass records n operations that succeeded.
func (c *checks) pass(n int) { c.attempted.Add(int64(n)) }

// fail records n failed operations and keeps the first messages.
func (c *checks) fail(n int, format string, args ...any) {
	c.attempted.Add(int64(n))
	c.failed.Add(int64(n))
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// expect records one operation, failed unless ok.
func (c *checks) expect(ok bool, format string, args ...any) bool {
	return c.expectN(1, ok, format, args...)
}

// expectN records n operations that succeed or fail together.
func (c *checks) expectN(n int, ok bool, format string, args ...any) bool {
	if ok {
		c.pass(n)
	} else {
		c.fail(n, format, args...)
	}
	return ok
}

// report holds one run's metrics in the order they were measured.
type report struct {
	names []string
	vals  map[string]metricValue
	notes [][2]string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) add(name, unit string, v float64) {
	if r.vals == nil {
		r.vals = make(map[string]metricValue)
	}
	if _, ok := r.vals[name]; !ok {
		r.names = append(r.names, name)
	}
	r.vals[name] = metricValue{Value: v, Unit: unit}
}

// note adds an informational line that is not a metric.
func (r *report) note(key, value string) { r.notes = append(r.notes, [2]string{key, value}) }

// print writes every metric and note, then the result line with the
// metrics names lists, and returns the exit code.
func (r *report) print(cfg config, names []metricSpec, chk *checks) int {
	mode := "end-to-end (tracing off)"
	if cfg.trace {
		mode = "traced per-layer"
	}
	fmt.Printf("perfbench %s seed %d scale %g, %s\n", cfg.workload, cfg.seed, cfg.scale, mode)
	fmt.Printf("  traffic mix: zipf-s %g, search 1 in %d, org 1 in %d, %d lines per bulk stream\n",
		cfg.mix.zipfS, cfg.mix.searchEvery, cfg.mix.orgEvery, cfg.mix.bulkLines)
	for _, n := range r.names {
		v := r.vals[n]
		fmt.Printf("  %-36s %16.4f %s\n", n, v.Value, v.Unit)
	}
	attempted, failed := chk.attempted.Load(), chk.failed.Load()
	fmt.Printf("  %-36s %16.6f share (%d of %d operations)\n", "failed_share", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	for _, n := range r.notes {
		fmt.Printf("  %-36s %s\n", n[0], n[1])
	}
	out := make(map[string]metricValue, len(names))
	for _, m := range names {
		v, ok := r.vals[m.Name]
		if !ok {
			chk.fail(1, "metric %s was not measured", m.Name)
			continue
		}
		if v.Unit != m.Unit {
			chk.fail(1, "metric %s measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
		}
		out[m.Name] = v
	}
	for _, p := range chk.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	correct := chk.failed.Load() == 0
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, max(chk.attempted.Load(), 1), chk.failed.Load(), out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}
