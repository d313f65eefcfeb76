package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON keeps the metric lists the program
// prints in step with the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tier := range []struct {
		name string
		spec []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got []metricDef
		for _, m := range tier.spec {
			got = append(got, metricDef{m.Name, m.Unit, m.Better})
		}
		if !reflect.DeepEqual(got, tier.defs) {
			t.Errorf("%s: BENCHMARK.json declares %v, the program prints %v", tier.name, got, tier.defs)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads %v, program runs %s at %d", names, w.name, i)
		}
	}
}

// runJSON runs the benchmark briefly and decodes its result line.
func runJSON(t *testing.T, args ...string) result {
	t.Helper()
	var out bytes.Buffer
	args = append(args, "--seconds", "0.3", "--out", t.TempDir())
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// checkMetrics asserts the result carries exactly the named metrics, each
// with its unit.
func checkMetrics(t *testing.T, label string, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics printed, want %d", label, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s = %+v, want unit %q", label, d.name, m, d.unit)
		}
	}
	if res.Attempted < 1 {
		t.Errorf("%s: attempted %d", label, res.Attempted)
	}
}

// TestSmoke runs every workload very briefly, untraced and traced, and
// checks that each named metric is printed with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		e2e := runJSON(t, "--workload", w.name, "--trace", "0")
		checkMetrics(t, w.name+" untraced", e2e, endToEnd)
		layer := runJSON(t, "--workload", w.name, "--trace", "1")
		checkMetrics(t, w.name+" traced", layer, perLayer)
		if w.name != "analytic" {
			continue
		}
		if !e2e.Correct || e2e.Failed != 0 {
			t.Errorf("analytic: correct=%v failed=%d", e2e.Correct, e2e.Failed)
		}
		if r := layer.Metrics["failed_ratio"].Value; r != 0 {
			t.Errorf("analytic: failed_ratio %v, want 0", r)
		}
	}
}

// TestSecondSeed runs the analytic workload, traced, on a seed other than
// the default: the oracle check and the traced-equals-untraced check must
// hold for any seed.
func TestSecondSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the analytic workload")
	}
	res := runJSON(t, "--workload", "analytic", "--seed", "2", "--trace", "1")
	if !res.Correct || res.Metrics["failed_ratio"].Value != 0 {
		t.Errorf("seed 2: correct=%v failed_ratio=%v", res.Correct, res.Metrics["failed_ratio"].Value)
	}
}

// TestPaperNumbersRepeat guards the paper's numbers: sim_s, jobs per query
// and shuffle bytes of the analytic pass repeat exactly across runs and
// across worker counts.
func TestPaperNumbersRepeat(t *testing.T) {
	s := deriveSeeds(1)
	tables, err := generate(s.tpch, s.clicksA)
	if err != nil {
		t.Fatal(err)
	}
	var first *reference
	for _, workers := range []int{1, 1, runtime.NumCPU()} {
		ref, err := referencePass(tables, workers)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = ref
			continue
		}
		if ref.simS != first.simS || ref.jobs != first.jobs || ref.shuffleB != first.shuffleB {
			t.Errorf("workers %d: sim_s %v jobs %d shuffle %d, first run %v %d %d",
				workers, ref.simS, ref.jobs, ref.shuffleB, first.simS, first.jobs, first.shuffleB)
		}
		if !reflect.DeepEqual(ref.rows, first.rows) || !reflect.DeepEqual(ref.stats, first.stats) {
			t.Errorf("workers %d: rows or ChainStats differ from the first run", workers)
		}
	}
}
