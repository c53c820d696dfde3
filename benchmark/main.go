// Command benchmark is the repository's benchmark: four closed-loop
// workloads over the assembled system, six end-to-end metrics each, and
// a traced mode that prints per-layer metrics. See README.md.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// runs one workload and prints one JSON result as the last line of
// standard output. Without --workload it runs all four, each in its
// own child process, and prints a table; -selfcheck runs the full set
// twice and compares the two against the bounds in BENCHMARK.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// report is the last line a single-workload run prints.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// options selects one single-workload run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// n overrides the window's transaction count (0: tx_per_second ×
	// seconds); setups, reads and probeInputs override the profile's
	// counts when positive. The smoke test shrinks all four.
	n, setups, reads, probeInputs int
}

func main() {
	runtime.GOMAXPROCS(workers)
	prof, err := loadProfile()
	if err != nil {
		fatal(err)
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its JSON result (default: all four, one child process each)")
	flag.Int64Var(&o.seed, "seed", prof.Seed, "workload seed")
	flag.IntVar(&o.seconds, "seconds", prof.RunSeconds, "length of the measured write window at seed speed; the window is tx_per_second × seconds transactions")
	trace := flag.Int("trace", 0, "1: attach registries, record spans and print the per-layer metrics instead of the end-to-end ones")
	selfcheck := flag.Bool("selfcheck", false, "run the full end-to-end set twice (A B B A per workload) and compare against the bounds")
	flag.Parse()
	o.trace = *trace != 0
	if flag.NArg() != 0 || o.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}

	switch {
	case *selfcheck:
		err = selfCheck(prof, o)
	case o.workload == "":
		err = runAll(prof, o)
	default:
		var rep *report
		rep, err = runOne(prof, o, os.Stdout)
		if err == nil {
			line, _ := json.Marshal(rep)
			fmt.Println(string(line))
			if !rep.Correct {
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runOne runs one workload in this process and writes a readable
// account of it to out.
func runOne(prof *profile, o options, out io.Writer) (*report, error) {
	wl, ok := prof.Workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	n := o.n
	if n <= 0 {
		n = wl.TxPerSecond * o.seconds
	}
	setups, reads, probeInputs := prof.Setups, prof.ReadQueries, prof.ProbeInputs
	if o.setups > 0 {
		setups = o.setups
	}
	if o.reads > 0 {
		reads = o.reads
	}
	if o.probeInputs > 0 {
		probeInputs = o.probeInputs
	}

	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(outDir(), "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	meta, _ := json.Marshal(map[string]any{
		"workload": o.workload, "why": wl.Why, "seed": o.seed, "n": n, "seconds": o.seconds,
		"trace": o.trace, "profile": wl, "host": thisHost(scratch), "calibrated_on": prof.CalibratedOn,
	})
	fmt.Fprintf(out, "meta %s\n", meta)

	b := newBench(o.workload, wl)
	t0 := time.Now()
	b.generate(o.seed, n)
	genD := time.Since(t0)

	po := passOptions{name: o.workload, setups: setups, reads: reads, seed: o.seed, genD: genD, scratch: scratch, log: out,
		host: newHostClock(time.Duration(prof.RefChunkUs) * time.Microsecond)}
	fmt.Fprintf(out, "phase generate: %.3fs\n", genD.Seconds())
	if !o.trace {
		res, err := pass(b, po)
		if err != nil {
			return nil, err
		}
		return finish(out, res, res.e2e, endToEnd)
	}

	// Traced run: the same window once without and once with tracing —
	// their difference is the tracing overhead — then the isolated
	// probes over the workload's first inputs.
	po.setups, po.keepInputs = 1, true
	plain, err := pass(b, po)
	if err != nil {
		return nil, err
	}
	po.tr = &tracing{rec: newRecorder()}
	res, err := pass(b, po)
	if err != nil {
		return nil, err
	}
	res.layer["obs.trace_overhead_pct"] = 100 * (1 - ratio(res.tps, plain.tps))
	preload, inputs := b.probeSet(probeInputs)
	if err := runProbes(preload, inputs, wl.BlockTxs, res.layer); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	res.layer.zeroFill(perLayer)
	res.problems = append(res.problems, plain.problems...)
	return finish(out, res, res.layer, perLayer)
}

// finish prints the metrics by name with their units and builds the
// JSON result.
func finish(out io.Writer, res *result, m metrics, defs []metricDef) (*report, error) {
	vals, err := m.emit(defs)
	if err != nil {
		return nil, err
	}
	for _, d := range defs {
		fmt.Fprintf(out, "%-34s %14.4f %s\n", d.Name, vals[d.Name].Value, d.Unit)
	}
	for _, p := range res.problems {
		fmt.Fprintf(out, "INCORRECT: %s\n", p)
	}
	return &report{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: vals}, nil
}

// child runs one workload in a fresh process — a fresh heap, so one
// workload's garbage is never another's GC noise — and returns its
// result line.
func child(o options, echo io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if o.trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", tr)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if echo != nil {
		fmt.Fprintf(echo, "== %s\n%s\n", o.workload, strings.Join(lines[:len(lines)-1], "\n"))
	}
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, runErr)
		}
		return nil, fmt.Errorf("%s: last line is not a result: %w", o.workload, err)
	}
	return &rep, nil
}

// runAll runs the four workloads and exits non-zero if any fails its
// correctness gate.
func runAll(prof *profile, o options) error {
	incorrect := 0
	for _, name := range workloadNames {
		o.workload = name
		rep, err := child(o, os.Stdout)
		if err != nil {
			return err
		}
		fmt.Printf("%s: attempted %d, failed %d, correct %v\n\n", name, rep.Attempted, rep.Failed, rep.Correct)
		if !rep.Correct {
			incorrect++
		}
	}
	if incorrect != 0 {
		return fmt.Errorf("%d workloads failed the correctness gate", incorrect)
	}
	return nil
}

// selfCheck runs the end-to-end set twice in one invocation, in the
// order A B B A per workload, and prints both values of every
// workload × metric with their relative difference and the bound; a
// difference past a bound fails the check.
func selfCheck(prof *profile, o options) error {
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	o.trace = false
	past := 0
	fmt.Printf("%-16s %-16s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, name := range workloadNames {
		o.workload = name
		var runs [4]*report // A B B A
		for i := range runs {
			rep, err := child(o, nil)
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s failed the correctness gate", name)
			}
			runs[i] = rep
		}
		for _, d := range endToEnd {
			a := (runs[0].Metrics[d.Name].Value + runs[3].Metrics[d.Name].Value) / 2
			b := (runs[1].Metrics[d.Name].Value + runs[2].Metrics[d.Name].Value) / 2
			diff := ratio(b-a, a)
			if diff < 0 {
				diff = -diff
			}
			flag := ""
			if diff > bounds[d.Name] {
				flag = "  PAST BOUND"
				past++
			}
			fmt.Printf("%-16s %-16s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", name, d.Name, a, b, 100*diff, 100*bounds[d.Name], flag)
		}
	}
	if past != 0 {
		return fmt.Errorf("%d workload × metric cells differ by more than their bound", past)
	}
	return nil
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json at the
// checkout's root.
func loadBounds() (map[string]float64, error) {
	path := "BENCHMARK.json"
	if _, err := os.Stat(path); err != nil {
		path = filepath.Join("..", path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := make(map[string]float64)
	for _, m := range decl.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
