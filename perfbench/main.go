// Command perfbench is the repository benchmark: one command that runs a
// named workload through HDFace's production paths, checks the outputs,
// and prints every end-to-end metric (untraced run) or every per-layer
// metric (traced run) by name and unit. README.md in this directory
// describes the workloads, the metrics and how to read them.
//
// Run it from the repository root through the build script:
//
//	bash perfbench/run.sh --workload sweep-lattice --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check
// exits 1 after printing it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// options is one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for the traced run's span files and scratch state

	// tiny shrinks every input for the benchmark's own tests.
	tiny bool
	// corrupt installs the box-flipping scorer in the traced sweep, for
	// the test that the correctness checks catch a wrong box.
	corrupt bool
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(o options, r *report) error{
	"sweep-lattice":     runSweepLattice,
	"stream-offlattice": runStreamOffLattice,
	"tenants-mixed":     runTenantsMixed,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 25, "measured run length in seconds")
	traced := fs.Int("trace", 0, "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	out := fs.String("out", ".bench_build/perfbench-out", "directory for span files and temporary state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(names, ", "))
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace %d: want 0 or 1\n", *traced)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: -seconds %g: want a positive length\n", *seconds)
		return 2
	}
	return execute(options{workload: *workload, seed: *seed, seconds: *seconds, trace: *traced == 1, out: *out}, stdout, stderr)
}

// execute runs one workload and prints the report and the result line.
func execute(o options, stdout, stderr io.Writer) int {
	// One load-generating process with one OS thread per CPU.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	r := newReport(stdout)
	r.provenance(o)
	before := hostProbe()
	err := workloads[o.workload](o, r)
	r.measured()
	r.setProbe(before, hostProbe())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	r.writeMetrics(specs)
	res := r.result(specs)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: correctness checks failed: %s\n", strings.Join(r.failed, ", "))
		return 1
	}
	return 0
}
