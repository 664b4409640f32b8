// Command wsdbench regenerates the paper's tables and figures and runs the
// performance regression suite.
//
// Usage:
//
//	wsdbench -exp table3              # one experiment, quick profile
//	wsdbench -exp all -full           # full suite at paper-like trial counts
//	wsdbench -list                    # list experiment ids
//	wsdbench -exp suite -json > BENCH_$(date +%F).json
//	                                  # machine-readable perf report
//	wsdbench -compare old.json new.json
//	                                  # exit 1 on >10% perf regression
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/benchsuite"
	"repro/internal/cli"
	"repro/internal/experiment"
)

type runner func(experiment.Profile) (*experiment.Table, error)

func table(f func(experiment.Profile) (*experiment.AccuracyResult, error)) runner {
	return func(p experiment.Profile) (*experiment.Table, error) {
		r, err := f(p)
		if err != nil {
			return nil, err
		}
		return r.Table, nil
	}
}

var experiments = map[string]runner{
	"table2": table(experiment.Table2),
	"table3": table(experiment.Table3),
	"table4": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.Table4(p)
		return tbl(r, err)
	},
	"table5": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.Table5(p)
		return tbl(r, err)
	},
	"table6": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.Table6(p)
		return tbl(r, err)
	},
	"table7":  table(experiment.Table7),
	"table8":  table(experiment.Table8),
	"table9":  table(experiment.Table9),
	"table10": table(experiment.Table10),
	"table11": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.Table11(p)
		return tbl(r, err)
	},
	"table12": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.Table12(p)
		return tbl(r, err)
	},
	"table13": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.Table13(p)
		return tbl(r, err)
	},
	"fig1": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.Fig1(p)
		return tbl(r, err)
	},
	"fig2a": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.Fig2a(p)
		return tbl(r, err)
	},
	"fig2b": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.Fig2b(p)
		return tbl(r, err)
	},
	"fig2c": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.Fig2c(p)
		return tbl(r, err)
	},
	"fig2d": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.Fig2d(p)
		return tbl(r, err)
	},
	"fig3": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.Fig3(p)
		return tbl(r, err)
	},
	"fig4a": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.Fig4a(p)
		return tbl(r, err)
	},
	"fig4b": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.Fig4b(p)
		return tbl(r, err)
	},
	"fig4c": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.Fig4c(p)
		return tbl(r, err)
	},
	"fig4d": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.Fig4d(p)
		return tbl(r, err)
	},
	"fig5": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.Fig5(p)
		if err != nil {
			return nil, err
		}
		combined := *r.Massive.Table
		combined.Rows = append(combined.Rows, []string{"-- light --"})
		combined.Rows = append(combined.Rows, r.Light.Table.Rows...)
		return &combined, nil
	},
	"throughput": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.Throughput(p)
		return tbl(r, err)
	},
	"ablation-weights": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.WeightFamilies(p)
		return tbl(r, err)
	},
	"ablation-wrs": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.WRSAlphaSweep(p)
		return tbl(r, err)
	},
	"ablation-ddpg": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.DDPGAblation(p)
		return tbl(r, err)
	},
	"policy": func(p experiment.Profile) (*experiment.Table, error) {
		r, err := experiment.PolicyLifecycle(p)
		return tbl(r, err)
	},
	"suite": func(p experiment.Profile) (*experiment.Table, error) {
		rep, err := benchsuite.Run(suiteConfig(p))
		if err != nil {
			return nil, err
		}
		return suiteTable(rep), nil
	},
}

// suiteOnly carries the -only flag's workload substrings into suiteConfig
// (the suite entry point is reached both from main and the experiment table).
var suiteOnly []string

// suiteConfig maps the experiment profile onto the benchmark suite: the seed
// carries over, and the trial count is capped at 5 — perf trials average
// clock noise, not sampling variance, so paper-scale repetition buys nothing.
func suiteConfig(p experiment.Profile) benchsuite.Config {
	trials := p.Trials
	if trials > 5 {
		trials = 5
	}
	return benchsuite.Config{Seed: p.Seed, Trials: trials, Only: suiteOnly}
}

// suiteTable renders a perf report as a wsdbench table, the human view of
// the JSON artifact.
func suiteTable(rep *benchsuite.Report) *experiment.Table {
	t := &experiment.Table{
		ID:     "suite",
		Title:  "Ingest benchmark suite (fixed seeds; see -json for the machine-readable report)",
		Header: []string{"workload", "events", "events/s", "ns/event", "allocs/event", "MRE"},
		Notes: []string{
			fmt.Sprintf("seed %d, %d trial(s), %s %s/%s, %d CPUs", rep.Seed, rep.Trials, rep.GoVersion, rep.GOOS, rep.GOARCH, rep.CPUs),
			"record: wsdbench -exp suite -json > BENCH_<date>.json; gate: wsdbench -compare old.json new.json",
		},
	}
	for _, r := range rep.Results {
		t.AddRow(r.Workload, fmt.Sprintf("%d", r.Events), fmt.Sprintf("%.0f", r.EventsPerSec),
			fmt.Sprintf("%.0f", r.NsPerEvent), fmt.Sprintf("%.3f", r.AllocsPerEvent),
			fmt.Sprintf("%.2f%%", r.MREVsExact*100))
	}
	return t
}

// runCompare implements -compare: load two reports, diff, print, and exit
// non-zero on regression.
func runCompare(oldPath, newPath string, tol benchsuite.Tolerances) int {
	load := func(path string) *benchsuite.Report {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsdbench: %v\n", err)
			os.Exit(2)
		}
		rep, err := benchsuite.DecodeReport(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsdbench: %s: %v\n", path, err)
			os.Exit(2)
		}
		return rep
	}
	base, next := load(oldPath), load(newPath)
	regs := benchsuite.Compare(base, next, tol)
	fmt.Printf("comparing %s (base) vs %s\n%s", oldPath, newPath, benchsuite.FormatComparison(base, next, regs))
	if len(regs) > 0 {
		return 1
	}
	return 0
}

// tbl lifts any result carrying a Table field.
func tbl(r interface{ GetTable() *experiment.Table }, err error) (*experiment.Table, error) {
	if err != nil {
		return nil, err
	}
	return r.GetTable(), nil
}

func ids() []string {
	out := make([]string, 0, len(experiments))
	for id := range experiments {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func main() { os.Exit(run()) }

// run is the command body. It returns the exit code instead of calling
// os.Exit, so the deferred profile stop runs on every path.
func run() (code int) {
	exp := flag.String("exp", "", "experiment id (or 'all')")
	full := flag.Bool("full", false, "use the paper-scale profile (100 trials, 1000 DDPG iterations)")
	trials := flag.Int("trials", 0, "override the number of sampling trials")
	seed := flag.Int64("seed", 0, "override the base seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	jsonOut := flag.Bool("json", false, "with -exp suite: emit the machine-readable JSON report on stdout")
	only := flag.String("only", "", "with -exp suite: run only workloads whose name contains one of these comma-separated substrings")
	compare := flag.Bool("compare", false, "compare two suite reports: wsdbench -compare old.json new.json; exits 1 on regression")
	tolTime := flag.Float64("tolerance", 0, "with -compare: allowed relative events/s drop (default 0.10)")
	tolAllocs := flag.Float64("alloc-tolerance", 0, "with -compare: allowed relative allocs/event rise (default 0.10)")
	tolMRE := flag.Float64("mre-tolerance", 0, "with -compare: allowed relative MRE rise (default 0.50)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (read it with go tool pprof)")
	flag.Parse()

	stopProfile, err := cli.StartCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsdbench: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintf(os.Stderr, "wsdbench: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *list {
		fmt.Println(strings.Join(ids(), "\n"))
		return 0
	}
	if *only != "" {
		for _, part := range strings.Split(*only, ",") {
			if part = strings.TrimSpace(part); part != "" {
				suiteOnly = append(suiteOnly, part)
			}
		}
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: wsdbench -compare [-tolerance X] [-alloc-tolerance Y] [-mre-tolerance Z] old.json new.json")
			return 2
		}
		tol := benchsuite.Tolerances{Throughput: *tolTime, Allocs: *tolAllocs, MRE: *tolMRE}
		return runCompare(flag.Arg(0), flag.Arg(1), tol)
	}
	prof := experiment.Quick()
	if *full {
		prof = experiment.Full()
	}
	if *trials > 0 {
		prof.Trials = *trials
	}
	if *seed != 0 {
		prof.Seed = *seed
	}
	if *jsonOut {
		if *exp != "suite" {
			fmt.Fprintln(os.Stderr, "wsdbench: -json requires -exp suite")
			return 2
		}
		rep, err := benchsuite.Run(suiteConfig(prof))
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsdbench: suite: %v\n", err)
			return 1
		}
		out, err := rep.Encode()
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsdbench: suite: %v\n", err)
			return 1
		}
		os.Stdout.Write(out)
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: wsdbench -exp <id>|all [-full] [-trials N] [-seed S] [-json]; -list shows ids; -compare diffs suite reports")
		return 2
	}

	var selected []string
	if *exp == "all" {
		selected = ids()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			if _, ok := experiments[id]; !ok {
				fmt.Fprintf(os.Stderr, "wsdbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, id)
		}
	}
	for _, id := range selected {
		start := time.Now()
		t, err := experiments[id](prof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsdbench: %s: %v\n", id, err)
			return 1
		}
		fmt.Println(t.String())
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
