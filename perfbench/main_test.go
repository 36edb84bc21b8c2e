package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// benchmark itself must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if s := endToEnd[i]; m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, benchmark reports %s %s %s", i, m.Name, m.Unit, m.Better, s.Name, s.Unit, s.Better)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if s := perLayer[i]; m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per_layer[%d] = %s %s %s, benchmark reports %s %s %s", i, m.Name, m.Unit, m.Better, s.Name, s.Unit, s.Better)
		}
	}
}

// runTiny runs one tiny-size workload and returns its exit code, its
// result line and everything it printed.
func runTiny(t *testing.T, o options) (int, result, string) {
	t.Helper()
	o.tiny = true
	if o.seed == 0 {
		o.seed = 7
	}
	o.out = t.TempDir()
	if o.seconds == 0 {
		o.seconds = 1.5
	}
	var stdout, stderr bytes.Buffer
	code := execute(o, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%t: last line is not a result: %v\n%s\n%s", o.workload, o.trace, err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String() + stderr.String()
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			code, res, out := runTiny(t, options{workload: name, trace: traced})
			if code != 0 || !res.Correct {
				t.Errorf("%s trace=%t: exit %d, correct %t\n%s", name, traced, code, res.Correct, out)
				continue
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%t: attempted %d, failed %d", name, traced, res.Attempted, res.Failed)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", name, traced, s.Name, m, s.Unit)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", name, s.Name)
				}
			}
		}
	}
}

// A scorer that flips one window's decision in the traced sweep must fail
// the run's correctness checks.
func TestCorruptingScorerFailsTheCheck(t *testing.T) {
	code, res, out := runTiny(t, options{workload: "sweep-lattice", trace: true, corrupt: true})
	if code == 0 || res.Correct {
		t.Fatalf("corrupted sweep: exit %d, correct %t\n%s", code, res.Correct, out)
	}
	if !strings.Contains(out, "sweep_traced_identical") || !strings.Contains(out, "FAILED") {
		t.Errorf("corrupted sweep did not fail the traced-identity check:\n%s", out)
	}
}

// Quality is scored on a fixed evaluation set, so two runs of different
// length and seed report bit-identical quality.
func TestQualityIndependentOfSpeedAndSeed(t *testing.T) {
	for name := range workloads {
		_, a, outA := runTiny(t, options{workload: name, seed: 3, seconds: 1})
		_, b, outB := runTiny(t, options{workload: name, seed: 11, seconds: 2.5})
		qa, qb := a.Metrics["quality"].Value, b.Metrics["quality"].Value
		if math.Float64bits(qa) != math.Float64bits(qb) {
			t.Errorf("%s: quality %v (seed 3, 1 s) != %v (seed 11, 2.5 s)\n%s\n%s", name, qa, qb, outA, outB)
		}
	}
}
