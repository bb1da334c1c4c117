// Command perfmap regenerates the paper's figures: the incident-span
// diagram (Figure 2), the four detector performance maps (Figures 3-6), and
// the Lane & Brodley similarity walkthrough (Figure 7).
//
// Usage:
//
//	perfmap [flags]
//
//	-figure N        regenerate only figure N (2-7); default all
//	-detector name   regenerate only this detector's map (lb|markov|stide|nn)
//	-regime name     classification regime: strict (threshold 1, default)
//	                 or rare (count strong rare-sequence responses as hits)
//	-quick           use the reduced configuration (fast; identical shapes)
//	-csv             additionally emit each map as CSV to stdout
//	-metrics-out F   write a JSON metrics snapshot (corpus-build duration,
//	                 per-detector training durations, scoring throughput,
//	                 per-cell evaluation timing) to F at exit
//	-progress        emit NDJSON progress events to stderr during grid runs
//	-status ADDR     serve live introspection on ADDR while the run is in
//	                 flight: /metrics (Prometheus text; counters, gauges,
//	                 and quantile-sketch summaries), /runz (JSON grid
//	                 progress + ETA + sketch quantiles), /eventz (recent
//	                 events), /alertz (alert-journal tail, with -alerts),
//	                 /tracez (live span timeline stats), /healthz,
//	                 /debug/pprof; :0 picks a free port, announced as
//	                 statusAddr in the run.start event
//	-trace F         record per-event execution spans (corpus synthesis,
//	                 per-window trainings, every grid cell with its worker
//	                 lane) and write a Chrome trace_event JSON file to F at
//	                 exit; open it in Perfetto (ui.perfetto.dev) or feed it
//	                 to `diagnose -trace F` for critical-path analysis
//	-alerts F        journal streaming alarm dispositions to F as NDJSON
//	                 (schema adiv.alerts/v1) and arm the detector-health
//	                 watchdog; mainly useful under ensemble, which replays
//	                 a stream through the veto pipeline — analyze with
//	                 `diagnose -alerts F`
//	-cpuprofile F / -memprofile F   write runtime/pprof profiles
//	-j N             bound concurrent grid work (default runtime.NumCPU);
//	                 one pool is shared across all maps of the run
//	-checkpoint DIR  journal every completed grid cell to DIR/grid.journal
//	                 so a crashed or interrupted run can pick up where it
//	                 stopped
//	-resume          continue the journal in -checkpoint DIR: journaled
//	                 cells replay bit-identically (fully journaled rows
//	                 skip training outright), remaining cells run live;
//	                 refused if the journal was written under different
//	                 parameters
//	-shard i/N       evaluate only shard i of an N-way grid partition (a
//	                 deterministic hash of each cell's coordinates),
//	                 journaling to DIR/shard-i-of-N/grid.journal; N such
//	                 workers — processes or machines sharing nothing but
//	                 the configuration — cover the grid exactly once
//	-fanout N        run the whole distributed pipeline locally: spawn N
//	                 -shard workers, wait, merge their journals into
//	                 DIR/grid.journal (refusing conflicting duplicate
//	                 cells), and render the figures from the merged
//	                 journal — stdout is byte-identical to a serial run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"adiv"
	"adiv/internal/runflags"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfmap:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) (err error) {
	fs := flag.NewFlagSet("perfmap", flag.ContinueOnError)
	figure := fs.Int("figure", 0, "regenerate only this figure (2-7); 0 means all")
	detName := fs.String("detector", "", "regenerate only this detector's map (lb|markov|stide|nn)")
	regime := fs.String("regime", "strict", "classification regime: strict or rare")
	quick := fs.Bool("quick", false, "use the reduced configuration")
	csv := fs.Bool("csv", false, "additionally emit maps as CSV")
	asJSON := fs.Bool("json", false, "additionally emit maps as JSON")
	fanout := fs.Int("fanout", 0, "spawn N local worker processes, each evaluating one shard of the grid into -checkpoint DIR/shard-i-of-N, then merge the shard journals and render the maps from the merged journal; requires -checkpoint")
	obsFlags := runflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fanout != 0 {
		// The fanout coordinator branches before Start: the final rendering
		// pass it ends with re-enters run() and performs the one Start (and
		// -status bind, profile capture, ...) of this process.
		return runFanout(w, args, *fanout, obsFlags)
	}

	cfg := adiv.DefaultConfig()
	if *quick {
		cfg = adiv.QuickConfig()
	}

	obsRun, err := obsFlags.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := obsRun.Close(); err == nil {
			err = cerr
		}
	}()
	obsRun.Announce("run.start", adiv.EventFields{
		"cmd":      "perfmap",
		"quick":    *quick,
		"trainLen": cfg.Gen.TrainLen,
		"windows":  fmt.Sprintf("%d-%d", cfg.MinWindow, cfg.MaxWindow),
		"sizes":    fmt.Sprintf("%d-%d", cfg.MinSize, cfg.MaxSize),
		"regime":   *regime,
		"jobs":     obsRun.Scheduler().Workers(),
	})

	// Figure 7 needs no corpus.
	if *figure == 7 {
		return writeFigure7(w)
	}

	fmt.Fprintf(w, "building corpus (training length %d)...\n", cfg.Gen.TrainLen)
	obsRun.Progress().SetPhase("corpus")
	corpus, err := adiv.BuildCorpusObserved(cfg, obsRun.Metrics)
	if err != nil {
		return err
	}
	obsRun.Progress().SetPhase("grid")

	figures := map[int]string{3: adiv.DetectorLaneBrodley, 4: adiv.DetectorMarkov, 5: adiv.DetectorStide, 6: adiv.DetectorNeuralNet}
	wantFigure := func(n int) bool { return *figure == 0 || *figure == n }

	// The journal fingerprint pins exactly what this invocation evaluates:
	// the selected detector set and regime join the corpus parameters, so a
	// -detector stide journal never leaks cells into a full run (or vice
	// versa) and a -regime rare journal never resumes a strict one.
	var selected []string
	for _, n := range []int{3, 4, 5, 6} {
		if name := figures[n]; wantFigure(n) && (*detName == "" || *detName == name) {
			selected = append(selected, name)
		}
	}
	ckpt, err := obsRun.OpenJournal(corpus.Fingerprint("perfmap", selected, "regime="+*regime))
	if err != nil {
		return err
	}

	if wantFigure(2) && *detName == "" {
		if err := writeFigure2(w, corpus); err != nil {
			return err
		}
	}
	for _, n := range []int{3, 4, 5, 6} {
		name := figures[n]
		if !wantFigure(n) || (*detName != "" && *detName != name) {
			continue
		}
		factory, opts, err := adiv.DetectorFactory(name)
		if err != nil {
			return err
		}
		if *regime == "rare" && name != adiv.DetectorNeuralNet {
			opts = adiv.RareSensitiveEvalOptions()
		}
		// All maps of the run evaluate on one -j-bounded pool, report into
		// one progress tracker (what -status serves as /runz), and journal
		// into one checkpoint (nil without -checkpoint).
		opts.Scheduler = obsRun.Scheduler()
		opts.Progress = obsRun.Progress()
		opts.Checkpoint = ckpt
		opts.ShardIndex, opts.ShardCount = obsRun.Shard()
		m, err := corpus.PerformanceMapObserved(name, factory, opts, obsRun.Metrics)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nFigure %d —", n)
		if err := adiv.WriteMap(w, m); err != nil {
			return err
		}
		if *csv {
			if err := adiv.WriteMapCSV(w, m); err != nil {
				return err
			}
		}
		if *asJSON {
			data, err := json.Marshal(m)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s\n", data); err != nil {
				return err
			}
		}
	}
	// One corpus feeds every map: each width's training database is built
	// at most once and shared across stide/tstide/lb/markov/nn rows.
	hits, misses := corpus.TrainingDBs().Stats()
	fmt.Fprintf(w, "\ntraining-DB cache: %d databases built, %d reuses\n", misses, hits)
	obsRun.Announce("corpus.cache", adiv.EventFields{"built": misses, "reused": hits})

	if wantFigure(7) && *detName == "" && *figure == 0 {
		return writeFigure7(w)
	}
	return nil
}

func writeFigure2(w io.Writer, corpus *adiv.Corpus) error {
	const size, width = 8, 5 // the paper's Figure 2 parameters
	p, ok := corpus.Placements[size]
	if !ok {
		return fmt.Errorf("corpus has no size-%d placement", size)
	}
	fmt.Fprintln(w, "\nFigure 2 — boundary sequences and incident span")
	return adiv.WriteIncidentSpan(w, adiv.EvaluationAlphabet(), p, width)
}

func writeFigure7(w io.Writer) error {
	// The paper's shell-command example: two identical size-5 sequences,
	// then a pair differing only in the final element.
	names := []string{"cd", "<1>", "ls", "laf", "tar"}
	a := adiv.EvaluationAlphabet()
	normal := adiv.Stream{0, 1, 2, 3, 4}
	foreign := adiv.Stream{0, 1, 2, 3, 0} // last element mismatches
	fmt.Fprintln(w, "\nFigure 7 — Lane & Brodley similarity calculation")
	fmt.Fprintf(w, "(symbols stand for the paper's commands %v)\n", names)

	weights, total, err := adiv.LBSimilarityWeights(normal, normal)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "identical sequences:")
	if err := adiv.WriteSimilarity(w, a, normal, normal, weights, total, adiv.LBMaxSimilarity(len(normal))); err != nil {
		return err
	}
	weights, total, err = adiv.LBSimilarityWeights(normal, foreign)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "normal vs foreign (final element differs):")
	return adiv.WriteSimilarity(w, a, normal, foreign, weights, total, adiv.LBMaxSimilarity(len(normal)))
}
