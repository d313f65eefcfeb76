// Command benchmark is ysmart's end-to-end and per-layer benchmark. One
// invocation runs one or more named workloads in a single process, checks
// every answer against the DBMS oracle, and prints each metric by name and
// unit. The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics.
//
//	bash benchmark/run.sh --workload analytic --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the workload twice, untraced and then with the benchmark's own spans
// on, and prints the per-layer metrics instead. README.md in this directory
// describes the workloads, the metrics and the predictions they support.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// setups is how many times a run sets its workload up; setup_s is the
// median, which keeps it steady at about 10 ms a set-up.
const setups = 25

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	out     string
}

// pass is the timed length of one pass: the whole run, or half of it for
// each of the untraced and traced passes of a --trace 1 run.
func (c config) pass() float64 {
	if c.trace {
		return c.seconds / 2
	}
	return c.seconds
}

// warmup is how long a pass runs untimed before its timed window, so
// caches fill and the heap reaches its working size first.
func (c config) warmup() float64 { return c.pass() / 10 }

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int64
	samples           int // latency samples in the timed window
	values            map[string]float64
}

// workloads maps each workload name to its runner, in the order "all" runs
// them.
var workloads = []struct {
	name string
	run  func(cfg config) (*outcome, error)
}{
	{"analytic", runAnalytic},
	{"serve-adhoc", runServeAdhoc},
	{"serve-reuse", runServeReuse},
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: analytic, serve-adhoc, serve-reuse, or all of them")
		seed     = fs.Int64("seed", 1, "seed of the generated tables, both click-stream versions and the query literals")
		seconds  = fs.Float64("seconds", 30, "length of each timed pass in seconds")
		trace    = fs.Int("trace", 0, "0 prints the end-to-end metrics; 1 adds a traced pass and prints the per-layer metrics")
		out      = fs.String("out", ".bench_build", "directory the traced pass writes its Chrome trace to")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	names, err := selectWorkloads(*workload)
	if err != nil {
		return err
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	for _, name := range names {
		for _, w := range workloads {
			if w.name != name {
				continue
			}
			o, err := w.run(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if err := report(stdout, name, cfg.trace, o); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	return nil
}

// selectWorkloads expands the --workload argument.
func selectWorkloads(arg string) ([]string, error) {
	var names []string
	for _, w := range workloads {
		if arg == "all" || arg == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("unknown workload %q (want analytic, serve-adhoc, serve-reuse or all)", arg)
	}
	return names, nil
}

// result is the JSON object printed as the last line of a workload's
// report.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// shownUntraced are printed in the table of an untraced run next to the
// end-to-end metrics but left out of its JSON line: too noisy on a shared
// two-core host to carry a bound (latency_p99_ms), zero by construction
// (failed_ratio), or not measured by every workload (connect_p50_ms). The
// traced run's JSON carries them as per-layer metrics.
var shownUntraced = []metricDef{
	{"latency_p99_ms", "ms", "lower"},
	{"failed_ratio", "ratio", "lower"},
	{"connect_p50_ms", "ms", "lower"},
}

// report prints the metrics of the selected tier as a table followed by
// the JSON result line.
func report(w io.Writer, workload string, traced bool, o *outcome) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-12s %-36s %16.6f %s\n", workload, d.name, v, d.unit)
	}
	if !traced {
		for _, d := range shownUntraced {
			if v, ok := o.values[d.name]; ok {
				fmt.Fprintf(w, "%-12s %-36s %16.6f %s\n", workload, d.name, v, d.unit)
			}
		}
		fmt.Fprintf(w, "%-12s %-36s %16d queries\n", workload, "timed_samples", o.samples)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
