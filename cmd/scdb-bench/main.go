// Command scdb-bench regenerates the paper's evaluation tables and
// figures on the simulated SmartchainDB and ETH-SC clusters, printing
// them side by side with the published numbers, and runs the open-loop
// traffic sweep. Everything else about the pipeline's performance is
// read off the repo benchmark (bash benchmark/run.sh).
//
// Usage:
//
//	scdb-bench -exp all                 # all seven experiments
//	scdb-bench -exp fig2
//	scdb-bench -exp fig7 -auctions 4 -bidders 10
//	scdb-bench -exp fig7 -valworkers 4  # headline curves on the parallel pipeline
//	scdb-bench -exp fig8 -nodes 4,8,16,32
//	scdb-bench -exp usability
//	scdb-bench -exp mix -scale 1000
//	scdb-bench -exp recovery
//	scdb-bench -exp traffic -trafficusers 1000000 -traffictxs 16384 -trafficrates 2000,6000
//	scdb-bench -exp traffic -cpuprofile cpu.out -memprofile mem.out
//	scdb-bench -exp fig2,mix -json out.json   # subsets; machine-readable results alongside the tables
//
// An unrecognized experiment name fails fast with the known set; it is
// never silently skipped.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"smartchaindb/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scdb-bench:", err)
		os.Exit(1)
	}
}

// run is the command with its arguments and output as parameters, so a
// test can run it in-process and read what it prints.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("scdb-bench", flag.ExitOnError)
	var (
		exp        = fs.String("exp", "all", "comma-separated experiments: fig2 | fig7 | fig8 | usability | mix | recovery | traffic | all")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile covering every selected experiment to this path")
		memProfile = fs.String("memprofile", "", "write a heap profile (after the last experiment) to this path")
		jsonPath   = fs.String("json", "", "also write every selected experiment's full results as JSON to this path")
		auctions   = fs.Int("auctions", 4, "auctions per run")
		bidders    = fs.Int("bidders", 10, "bidders per auction")
		seed       = fs.Int64("seed", 42, "simulation seed")
		sizes      = fs.String("sizes", "", "comma-separated payload sizes in bytes (default: the paper's 0.11-1.74 KB sweep)")
		nodes      = fs.String("nodes", "", "comma-separated validator counts (default 4,8,16,32)")
		mixScale   = fs.Int("scale", 1000, "mix experiment: divide the paper's 110k-tx mix by this factor")
		valWorkers = fs.Int("valworkers", 4, "fig7/fig8: per-validator pipeline workers (0 or 1 = one worker)")
		trUsers    = fs.Int("trafficusers", 0, "traffic experiment: pre-generated keypair population (default 1,000,000)")
		trTxs      = fs.Int("traffictxs", 0, "traffic experiment: transactions per leg (default 16384)")
		trRates    = fs.String("trafficrates", "", "traffic experiment: comma-separated offered loads in tx/s (default 2000,6000)")
		trBatch    = fs.Int("trafficbatch", 0, "traffic experiment: admission batch and block size (default 128)")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2 with the usage

	sizeList, err := parseInts(*sizes, bench.PayloadSizes)
	if err != nil {
		return err
	}
	nodeList, err := parseInts(*nodes, bench.ClusterSizes)
	if err != nil {
		return err
	}
	scale := bench.Fig7Scale{Auctions: *auctions, Bidders: *bidders, Workers: *valWorkers}

	// Every experiment records its full result here; -json writes the
	// accumulated report after the last one prints.
	report := bench.NewReport()

	// The experiments in canonical run order: "all" expands to this
	// list and an -exp name is valid exactly when it is in it.
	experiments := []struct {
		name string
		run  func() error
	}{
		{"fig2", func() error {
			r, err := bench.RunFig2(*seed)
			if err != nil {
				return err
			}
			report.Add("fig2", r)
			bench.PrintFig2(w, r)
			return nil
		}},
		{"fig7", func() error {
			fmt.Fprintf(w, "Experiment 1 — %d auctions x %d bidders per size point\n\n", *auctions, *bidders)
			rows, err := bench.RunFig7(sizeList, scale, *seed)
			if err != nil {
				return err
			}
			report.Add("fig7", rows)
			bench.PrintFig7(w, rows)
			return nil
		}},
		{"fig8", func() error {
			fmt.Fprintf(w, "Experiment 2 — 1.09 KB transactions, %d auctions x %d bidders per cluster size\n\n", *auctions, *bidders)
			rows, err := bench.RunFig8(nodeList, scale, *seed)
			if err != nil {
				return err
			}
			report.Add("fig8", rows)
			bench.PrintFig8(w, rows)
			return nil
		}},
		{"usability", func() error {
			r, err := bench.RunUsability()
			if err != nil {
				return err
			}
			report.Add("usability", r)
			bench.PrintUsability(w, r)
			return nil
		}},
		{"mix", func() error {
			r := bench.RunMix(*mixScale, *seed)
			report.Add("mix", r)
			bench.PrintMix(w, r)
			return nil
		}},
		{"recovery", func() error {
			r, err := bench.RunRecovery(*bidders, *seed)
			if err != nil {
				return err
			}
			report.Add("recovery", r)
			bench.PrintRecovery(w, r)
			return nil
		}},
		{"traffic", func() error {
			params := bench.TrafficParams{
				Users: *trUsers,
				Txs:   *trTxs,
				Batch: *trBatch,
				Seed:  *seed,
			}
			if *trRates != "" {
				rates, err := parseFloats(*trRates)
				if err != nil {
					return err
				}
				params.Rates = rates
			}
			r, err := bench.RunTraffic(params)
			if err != nil {
				return err
			}
			report.Add("traffic", r)
			bench.PrintTraffic(w, r)
			return nil
		}},
	}
	known := make([]string, len(experiments))
	for i, e := range experiments {
		known[i] = e.name
	}
	selected, err := selectExperiments(*exp, known)
	if err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	for _, name := range selected {
		for _, e := range experiments {
			if e.name != name {
				continue
			}
			if err := e.run(); err != nil {
				return err
			}
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		runtime.GC() // report live allocations, not garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
		f.Close()
	}
	if *jsonPath != "" {
		if err := report.WriteFile(*jsonPath); err != nil {
			return err
		}
		fmt.Fprintf(w, "results written to %s\n", *jsonPath)
	}
	return nil
}

// selectExperiments expands a comma-separated -exp value against the
// known experiment names: "all" expands to every experiment in
// canonical order, duplicates collapse (first mention wins), and an
// unrecognized name is an error naming the known set — never a silent
// skip, so a typo cannot masquerade as a clean run that measured
// nothing.
func selectExperiments(spec string, known []string) ([]string, error) {
	isKnown := make(map[string]bool, len(known))
	for _, n := range known {
		isKnown[n] = true
	}
	var selected []string
	seen := make(map[string]bool)
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			selected = append(selected, name)
		}
	}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "all" {
			for _, n := range known {
				add(n)
			}
			continue
		}
		if !isKnown[name] {
			return nil, fmt.Errorf("unknown experiment %q (known: %s, all)", name, strings.Join(known, ", "))
		}
		add(name)
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no experiment selected (known: %s, all)", strings.Join(known, ", "))
	}
	return selected, nil
}

// parseInts parses a comma-separated flag value; empty means def.
func parseInts(s string, def []int) ([]int, error) {
	if s == "" {
		return def, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
