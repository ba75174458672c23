// Command fedbench is the federation's end-to-end benchmark. It boots
// whole Zmail federations in-process through the public APIs of
// internal/cluster (real TCP, SMTP, WAL, admin telemetry) and
// internal/sim (virtual clock, simulated network), offers them seeded
// workloads, checks the results, and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See README.md in this directory for the workloads, the
// metric definitions and the per-layer table.
//
// Usage (from the repository root):
//
//	bash fedbench/run.sh --workload relay_mix --seed 1 --seconds 35 --trace 0
//	bash fedbench/run.sh --workload all --seed 1 --seconds 35
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness check's outcome. A failed check is counted
// and reported; it never aborts or retries the run. Gated checks make
// up the final line's "correct"; an ungated one is measured and
// reported only (see README.md, "Known defects").
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Gated  bool   `json:"gated"`
	Detail string `json:"detail"`
}

// record is everything one run measured.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Host     host   `json:"host"`

	// EndToEnd holds the gated end-to-end metrics (the names in
	// BENCHMARK.json). Catalogue holds every end-to-end figure under
	// its workload-specific name (README.md), including those that are
	// reported but not gated: they can read zero, or are not steady
	// enough on a shared host to gate.
	EndToEnd  map[string]metric `json:"end_to_end"`
	Catalogue map[string]metric `json:"catalogue"`
	Layers    map[string]metric `json:"per_layer,omitempty"`
	Samples   map[string]int    `json:"samples"`
	Checks    []check           `json:"checks"`
	Notes     []string          `json:"notes,omitempty"`

	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`

	unmeasured []string // gated metrics with no samples
}

func newRecord(workload string, seed int64, seconds int, trace bool) *record {
	return &record{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Host:      hostStamp(),
		EndToEnd:  map[string]metric{},
		Catalogue: map[string]metric{},
		Layers:    map[string]metric{},
		Samples:   map[string]int{},
	}
}

// e2e records a gated end-to-end metric. One that could not be
// measured (NaN: its operation never completed) reads as the worst
// value its direction allows and fails the end_to_end_measured check,
// so a build that breaks an operation never scores as an improvement.
func (r *record) e2e(name string, v float64, unit string) {
	if math.IsNaN(v) {
		r.unmeasured = append(r.unmeasured, name)
		v = math.Inf(1)
		if higherIsBetter[name] {
			v = 0
		}
	}
	r.EndToEnd[name] = metric{finite(v), unit}
}

// higherIsBetter names the gated metrics BENCHMARK.json marks
// "better": "higher"; every other one is lower-is-better.
var higherIsBetter = map[string]bool{"capacity_msgs_per_s": true}

func (r *record) cat(name string, v float64, unit string) {
	r.Catalogue[name] = metric{finite(v), unit}
}
func (r *record) layer(name string, v float64) { r.Layers[name] = metric{finite(v), layerUnit(name)} }

func (r *record) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Gated: true, Detail: fmt.Sprintf(format, args...)})
}

// observe records a check that is reported on every run but does not
// gate "correct".
func (r *record) observe(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *record) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *record) correct() bool {
	for _, c := range r.Checks {
		if c.Gated && !c.OK {
			return false
		}
	}
	return true
}

// finite keeps JSON encodable: a quantile over refused sends is +Inf,
// which is reported as a latency no SLO admits. NaN (no samples) reads
// 0 in the catalogue and the per-layer table; e2e handles it first.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1) || v > 1e12:
		return 1e12
	}
	return v
}

// workloads maps names to runners.
var workloads = map[string]func(cfg runConfig, rec *record) error{
	"relay_mix":     func(cfg runConfig, rec *record) error { return runFederation(relayMix, cfg, rec) },
	"local_submit":  func(cfg runConfig, rec *record) error { return runFederation(localSubmit, cfg, rec) },
	"audit_economy": runAuditEconomy,
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	budget  time.Duration // --seconds
	trace   bool
	outDir  string // scratch and trace output, inside the checkout
	workDir string // this run's private scratch directory
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fedbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "relay_mix, local_submit, audit_economy, or all")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measurement budget per workload")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "fedbench"), "directory for scratch files, records and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "fedbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"relay_mix", "local_submit", "audit_economy"}
	}
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			fmt.Fprintf(stderr, "fedbench: unknown workload %q (want relay_mix, local_submit, audit_economy or all)\n", name)
			return 2
		}
	}
	for _, name := range names {
		if code := runOne(name, *seed, *seconds, *traceFlag == 1, *outDir, stdout, stderr); code != 0 {
			return code
		}
	}
	return 0
}

func runOne(name string, seed int64, seconds int, trace bool, outDir string, stdout, stderr io.Writer) int {
	workDir := filepath.Join(outDir, fmt.Sprintf("work-%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "fedbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	cfg := runConfig{
		seed:    seed,
		budget:  time.Duration(seconds) * time.Second,
		trace:   trace,
		outDir:  outDir,
		workDir: workDir,
	}
	rec := newRecord(name, seed, seconds, trace)
	if err := workloads[name](cfg, rec); err != nil {
		fmt.Fprintf(stderr, "fedbench: %s: %v\n", name, err)
		return 1
	}
	if !trace {
		rec.check("end_to_end_measured", len(rec.unmeasured) == 0, "unmeasured gated metrics: %v", rec.unmeasured)
	}
	printReport(stdout, rec)
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, btoi(trace)))
	if b, err := json.MarshalIndent(rec, "", "  "); err == nil {
		if err := os.WriteFile(base+".json", b, 0o644); err != nil {
			fmt.Fprintln(stderr, "fedbench: write record:", err)
		}
	}

	metrics := rec.EndToEnd
	if trace {
		metrics = rec.Layers
	}
	final, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.correct(), rec.Attempted, rec.Failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "fedbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(final))
	return 0
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printReport writes the human-readable report: host stamp, the
// catalogue metrics, checks, notes and (traced runs) the per-layer
// table with each metric's target.
func printReport(w io.Writer, r *record) {
	fmt.Fprintf(w, "fedbench %s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d cpu=%q go=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.CPUModel, r.Host.GoVersion)
	for _, k := range sortedKeys(r.Catalogue) {
		m := r.Catalogue[k]
		fmt.Fprintf(w, "  %-22s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(r.Samples) {
		fmt.Fprintf(w, "  samples.%-14s %14d\n", k, r.Samples[k])
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
		}
		if !c.Gated {
			status += " (reported, not gated)"
		}
		fmt.Fprintf(w, "  check %-22s %s  %s\n", c.Name, status, c.Detail)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintf(w, "  %-34s %14s %-6s %s\n", "per-layer metric", "value", "unit", "moves → (workload)")
		for _, d := range layerDefs {
			m := r.Layers[d.name]
			fmt.Fprintf(w, "  %-34s %14.6g %-6s %s\n", d.name, m.Value, d.unit, d.moves)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
