// Command e2ebench is the served end-to-end benchmark of adskip.
//
// One process generates a workload's inputs from --seed, loads them
// through the public facade, serves them with an in-process server on
// 127.0.0.1 and drives closed-loop load through the Go client: every
// caller waits for its reply before sending again. Every reply is checked
// against an oracle built from the generated rows.
//
//	e2ebench --workload skip-zipf --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload untraced, then traced, then replayed in process, and prints the
// per-layer metrics and the tracing overhead. The last line of standard
// output is one JSON object; the lines before it are the same metrics as a
// table with units and sample counts. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runBudget bounds a whole run: phases stop issuing requests once it has
// passed, so the process exits well inside three minutes even on a much
// slower commit. Such a run is marked cut in its output.
const runBudget = 140 * time.Second

// setupRuns is how many times an untraced run sets the system up; setup_s
// is their median and the last one is measured.
const setupRuns = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: "+workloadNames())
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 10, "measured window: requests issued = per-workload rate × seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	s, ok := findSpec(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	workDir := os.Getenv("CARGO_TARGET_DIR")
	if workDir == "" {
		workDir = ".bench_build"
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	deadline := time.Now().Add(runBudget)
	env := describeEnv()
	fmt.Fprintf(stdout, "# e2ebench workload=%s seed=%d seconds=%d trace=%d %s\n", s.name, *seed, *seconds, *trace, env)

	p := makePlan(s, *seed, *seconds)
	o := newOracle(s, genBase(s, *seed).v)
	var rep *report
	var err error
	if *trace == 0 {
		rep, err = runEndToEnd(s, *seed, p, o, workDir, deadline)
	} else {
		rep, err = runLayers(s, *seed, p, o, workDir, env, deadline)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", s.name, err)
		return 1
	}
	rep.print(stdout)
	if rep.firstBad != nil {
		fmt.Fprintf(stderr, "e2ebench: first failure: %v\n", rep.firstBad)
	}
	if rep.cut {
		fmt.Fprintf(stderr, "e2ebench: run cut at its %s budget; counts are partial\n", runBudget)
	}
	if rep.wrong > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return strings.Join(names, "|")
}

// metric is one reported figure with its unit and the number of samples
// it was computed from.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

type report struct {
	metrics   []metric
	attempted int
	failed    int
	wrong     int
	firstBad  error
	cut       bool
}

func (r *report) add(name string, value float64, unit string, samples int) {
	if samples == 0 || math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics = append(r.metrics, metric{name, value, unit, samples})
}

func (r *report) count(p *phase) {
	if p == nil {
		return
	}
	r.attempted += p.attempted
	r.failed += p.failed
	r.wrong += p.wrong
	if r.firstBad == nil {
		r.firstBad = p.firstBad
	}
	r.cut = r.cut || p.cut
}

// print writes the human-readable table, then the JSON result line.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "%-32s %16s  %-10s %s\n", "metric", "value", "unit", "samples")
	out := make(map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-32s %16.4f  %-10s %d\n", m.name, m.value, m.unit, m.samples)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	failedRatio := 0.0
	if r.attempted > 0 {
		failedRatio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-32s %16.4f  %-10s %d\n", "failed_ratio", failedRatio, "ratio", r.attempted)
	fmt.Fprintf(w, "%-32s %16d  %-10s %d\n", "wrong_answers", r.wrong, "count", r.attempted)
	line, _ := json.Marshal(map[string]any{
		"correct":   r.wrong == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	fmt.Fprintf(w, "%s\n", line)
}

// quantile is the nearest-rank quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.999999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// describeEnv records what a result was measured on.
func describeEnv() string {
	return fmt.Sprintf("go=%s gomaxprocs=%d nproc=%d commit=%s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), sourceID())
}

// sourceID names the code under test: the git commit when the working
// directory is a git checkout, otherwise a hash of its Go sources.
func sourceID() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		name, isRef := strings.CutPrefix(ref, "ref: ")
		if !isRef {
			return ref
		}
		if b, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
			return strings.TrimSpace(string(b))
		}
		if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if hash, ref, ok := strings.Cut(line, " "); ok && ref == name {
					return hash
				}
			}
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}
