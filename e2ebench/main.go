// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload per invocation, in process: the serve workloads drive a real
// serve.Server over loopback TCP or HTTP, the grid workload builds the
// paper's four performance maps. See README.md for the workloads, the
// metrics and the layer each metric stands for.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	e2ebench --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of stdout is a JSON verdict carrying every
// end-to-end metric; with --trace 1 it carries every per-layer metric,
// measured by timing calls into each layer's public functions from this
// package. Earlier stdout lines are the run's environment stamp and a
// human-readable summary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload to run (tcp-stide, tcp-lb, http-churn, grid-quick)")
	seed := flags.Uint64("seed", 1, "seed every input is generated from")
	seconds := flags.Float64("seconds", 10, "measurement budget of the run, in seconds")
	trace := flags.Int("trace", 0, "1: report per-layer metrics from a traced run; 0: end-to-end metrics")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: need --workload NAME, --seconds > 0 and --trace 0 or 1:", err)
		return 2
	}

	stamp, err := json.Marshal(map[string]any{"env": environment(w, *seed, *seconds, *trace)})
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", stamp)

	var (
		tl  tally
		rep *report
	)
	traced := *trace == 1
	switch {
	case w.grid && traced:
		rep, err = runGridTraced(*seed, &tl)
	case w.grid:
		rep, err = runGrid(*seed, *seconds, &tl)
	case traced:
		rep, err = runServeTraced(w, *seed, *seconds, &tl)
	default:
		rep, err = runServe(w, *seed, *seconds, &tl)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	decls := endToEnd
	if traced {
		decls = perLayer
	}
	res, err := buildResult(decls, rep.values, &tl)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	writeSummary(stdout, decls, res)
	for _, p := range tl.problems {
		fmt.Fprintf(stderr, "e2ebench: check failed: %s\n", p)
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// environment stamps a result with everything that makes two numbers
// comparable: a figure from another configuration must not pass for one
// from this one.
func environment(w workload, seed uint64, seconds float64, trace int) map[string]any {
	env := map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
	if w.grid {
		env["config"] = "core.QuickConfig"
		env["families"] = gridFamilies
		env["jobs"] = []int{runtime.NumCPU(), 1}
		return env
	}
	env["transport"] = w.transport
	env["detector"] = w.detector
	env["window"] = w.window
	env["quiet"] = w.quiet
	env["shards"] = []int{runtime.NumCPU(), 1}
	env["batch"] = w.batch
	env["connections"] = maxConns
	env["in_flight"] = w.depth
	env["streams"] = w.streams
	env["open_loop_rate"] = w.rate
	return env
}

// commit identifies the code under test: the VCS revision when the build
// recorded one, and always a digest of the Go sources and module files
// under the working directory (the benchmark may run from a checkout that
// is not a repository).
func commit() string {
	rev := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // best effort
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
	h := fnv.New64a()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%s src:%016x", rev, h.Sum64())
}
