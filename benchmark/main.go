// Command benchmark is the repo's one performance harness. It runs four
// named workloads against the engine built from this checkout — three
// over HTTP against a spawned rfidserve, one in-process through the
// durable facade — checks their outputs, and prints every metric declared
// in BENCHMARK.json by name with its unit. README.md explains the
// workloads, the metrics and how they are expected to interact.
//
// Run it through benchmark/run.sh, which builds this program and
// cmd/rfidserve side by side.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// settings are the knobs that are fixed on both sides of any comparison.
// The real runs use defaults(); the smoke tests shrink them.
type settings struct {
	scale    int           // RFIDGen scale factor; caser gets about scale*1500 rows
	clients  int           // closed-loop connections of the HTTP workloads
	setups   int           // set-ups per untraced run; setup_s is their median
	warmup   time.Duration // load applied before the measured window
	seconds  time.Duration // the measured window
	serveBin string        // rfidserve binary; "" serves from a listener in this process
	tmp      string        // durable roots and address files
	out      string        // trace files
	log      io.Writer     // the human-readable report

	batchRows    int     // reads per ingest batch
	bulkBatches  int     // batches of the back-to-back bulk phase
	ingestRate   float64 // batches per second of the paced phase
	traceBatches int     // ingest batches replayed by a traced run
}

func defaults() *settings {
	return &settings{
		// Scale 200 is ≈320 k case reads and ≈350 MB resident in the server:
		// far outside the CPU caches, and small enough that three set-ups
		// and a 10 s window fit the time the benchmark contract allows a run.
		scale:        200,
		clients:      min(runtime.NumCPU(), 4),
		setups:       3,
		warmup:       2 * time.Second,
		batchRows:    500,
		bulkBatches:  400,
		ingestRate:   10,
		traceBatches: 200,
	}
}

func (s *settings) logf(format string, args ...any) {
	fmt.Fprintf(s.log, format+"\n", args...)
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: fixes every request the generators draw")
	seconds := fs.Int("seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 runs the traced, in-process, single-threaded replay and reports the per-layer metrics")
	out := fs.String("out", "benchmark/out", "directory for trace-<workload>.json")
	aa := fs.Bool("aa", false, "run every workload twice on this build and compare against the manifest bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	m, err := loadManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	s := defaults()
	s.log = stdout
	s.out = *out
	s.tmp = filepath.Join(filepath.Dir(filepath.Dir(exe)), "tmp")
	s.serveBin = filepath.Join(filepath.Dir(exe), "rfidserve")
	s.seconds = time.Duration(m.RunSeconds) * time.Second
	if *seconds > 0 {
		s.seconds = time.Duration(*seconds) * time.Second
	}
	if _, err := os.Stat(s.serveBin); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: no rfidserve beside the harness; run benchmark/run.sh, which builds both:", err)
		return 2
	}
	if err := os.MkdirAll(s.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}

	names := []string{*workload}
	if *workload == "all" || *aa {
		names = names[:0]
		for _, w := range m.Workloads {
			names = append(names, w.Name)
		}
	} else if !m.workload(*workload) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}

	ok := true
	switch {
	case *aa:
		ok = runAA(ctx, m, s, names, *seed)
	case *workload == "all":
		for _, name := range names {
			for _, traced := range []bool{false, true} {
				if _, good := runOne(ctx, m, s, name, *seed, traced); !good {
					ok = false
				}
			}
		}
	default:
		_, ok = runOne(ctx, m, s, *workload, *seed, *trace != 0)
	}
	if !ok {
		return 1
	}
	return 0
}

// runOne performs one run and prints its report: the metric table, then
// the result object as the last line. It reports false when the run
// could not complete, produced incorrect output, or had failed requests.
func runOne(ctx context.Context, m *manifest, s *settings, name string, seed int64, traced bool) (*result, bool) {
	decls := m.EndToEnd
	mode := "untraced, end to end"
	if traced {
		decls = m.PerLayer
		mode = "traced, per layer"
	}
	s.logf("== %s (%s): seed %d, scale %d, %d clients, window %s ==", name, mode, seed, s.scale, s.clients, s.seconds)
	res, vals, err := measure(ctx, s, name, seed, traced)
	if err == nil {
		res.Metrics, err = assemble(decls, vals, traced)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
		return nil, false
	}
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: nothing was attempted\n", name)
		return nil, false
	}
	for _, d := range decls {
		s.logf("%-16s %-36s %16.4f %s", name, d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
		return nil, false
	}
	s.logf("%s", blob)
	return res, res.Correct && res.Failed == 0
}

func measure(ctx context.Context, s *settings, name string, seed int64, traced bool) (*result, map[string]float64, error) {
	switch {
	case name == "ingest_recover" && traced:
		return traceIngest(ctx, s, seed)
	case name == "ingest_recover":
		return runIngest(ctx, s, seed)
	case traced:
		return traceHTTP(name, s, seed)
	default:
		return runHTTP(ctx, name, s, seed)
	}
}

// runAA runs every workload twice on the same build and holds the two
// results to the manifest's own bounds: a benchmark that cannot agree
// with itself cannot resolve a regression of that size.
func runAA(ctx context.Context, m *manifest, s *settings, names []string, seed int64) bool {
	type row struct {
		workload, metric  string
		a, b, diff, bound float64
	}
	var rows []row
	ok := true
	for _, name := range names {
		var runs [2]*result
		for i := range runs {
			res, good := runOne(ctx, m, s, name, seed+int64(i), false)
			if !good {
				return false
			}
			runs[i] = res
		}
		for _, d := range m.EndToEnd {
			a, b := runs[0].Metrics[d.Name].Value, runs[1].Metrics[d.Name].Value
			rows = append(rows, row{name, d.Name, a, b, math.Abs(b-a) / a, *d.Bound})
		}
	}
	s.logf("== A/A: two runs of the same build ==")
	s.logf("%-16s %-18s %14s %14s %8s %8s", "workload", "metric", "run A", "run B", "diff", "bound")
	for _, r := range rows {
		verdict := ""
		if r.diff > r.bound {
			verdict = "  EXCEEDS"
			ok = false
		}
		s.logf("%-16s %-18s %14.4f %14.4f %7.1f%% %7.1f%%%s", r.workload, r.metric, r.a, r.b, 100*r.diff, 100*r.bound, verdict)
	}
	return ok
}
