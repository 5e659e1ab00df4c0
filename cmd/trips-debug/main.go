// Command trips-debug is the time-travel debugger for flight-recorder dump
// bundles. A bundle (written by tsim -flight or any RunTRIPS caller with the
// recorder armed) carries the nearest-prior machine checkpoint, the trace
// window leading up to the trigger, and the workload/config identity — so
// the crash neighborhood of a run that executed with no tracing at all can
// be re-simulated deterministically under full observability.
//
//	trips-debug info   <bundle-dir>
//	trips-debug replay <bundle-dir> [-to-cycle n] [-to-block n]
//	           [-from-start] [-critpath] [-trace out.json] [-events out.json]
//	trips-debug diff   <a> <b>   (bundle dirs or window .events.json files)
//
// replay restores the bundled checkpoint into a freshly built machine and
// re-runs it to the window of interest; -trace exports the replayed window
// as a Chrome/Perfetto timeline and -events as a window file diff can
// consume. -from-start re-simulates from the entry block instead (required
// for -critpath: critical-path events are not checkpointed; the replayed
// window is bit-identical either way, critpath tags aside).
//
// diff canonicalizes two windows (intra-cycle emission order and message
// trace ids are host artifacts, not protocol observables) and localizes the
// first divergent protocol event.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"trips/internal/eval"
	"trips/internal/flight"
	"trips/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "info":
		cmdInfo(os.Args[2:])
	case "replay":
		cmdReplay(os.Args[2:])
	case "diff":
		cmdDiff(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "trips-debug: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  trips-debug info   <bundle-dir>
  trips-debug replay <bundle-dir> [-to-cycle n] [-to-block n] [-from-start] [-critpath] [-trace out.json] [-events out.json]
  trips-debug diff   <a> <b>   (bundle dirs or window .events.json files)`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trips-debug:", err)
	os.Exit(1)
}

// parseArgs accepts the subcommand's positional paths either before or after
// its flags (flag.Parse alone would stop at the first path), returning the
// positionals after flag parsing.
func parseArgs(fs *flag.FlagSet, args []string, npos int) []string {
	var pos []string
	for len(args) > 0 && len(pos) < npos && !strings.HasPrefix(args[0], "-") {
		pos = append(pos, args[0])
		args = args[1:]
	}
	fs.Parse(args)
	pos = append(pos, fs.Args()...)
	if len(pos) != npos {
		usage()
		os.Exit(2)
	}
	return pos
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	pos := parseArgs(fs, args, 1)
	b, err := flight.ReadBundle(pos[0])
	if err != nil {
		fatal(err)
	}
	m := b.Manifest
	fmt.Printf("bundle %s\n", b.Dir)
	fmt.Printf("  tool        %s\n", m.Tool)
	fmt.Printf("  trigger     %s\n", m.Trigger)
	if m.Reason != "" {
		fmt.Printf("  reason      %s\n", m.Reason)
	}
	fmt.Printf("  dump cycle  %d\n", m.DumpCycle)
	if m.Checkpoint != nil {
		fmt.Printf("  checkpoint  %s: cycle %d, %d payload bytes\n", m.Checkpoint.File, m.Checkpoint.Cycle, m.Checkpoint.Bytes)
	} else {
		fmt.Printf("  checkpoint  none (trigger fired before the first rolling capture)\n")
	}
	for _, w := range m.Windows {
		fmt.Printf("  window      %s: %d events, cycles %d..%d (%d overwritten)\n",
			w.Name, w.Events, w.FirstCycle, w.LastCycle, w.Dropped)
	}
	if len(m.Meta) > 0 {
		fmt.Printf("  machine:\n")
		for _, k := range sortedKeys(m.Meta) {
			fmt.Printf("    %-14s %s\n", k, m.Meta[k])
		}
	}
	if len(m.Counters) > 0 {
		fmt.Printf("  counters:\n")
		ks := make([]string, 0, len(m.Counters))
		for k := range m.Counters {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			fmt.Printf("    %-26s %d\n", k, m.Counters[k])
		}
	}
	if m.ContentHash != "" {
		fmt.Printf("  content hash %s\n", m.ContentHash)
	}
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var (
		toCycle   = fs.Int64("to-cycle", 0, "stop the replay at this cycle (0 = run to completion)")
		toBlock   = fs.Uint64("to-block", 0, "stop once this many blocks have committed (0 = no block bound)")
		fromStart = fs.Bool("from-start", false, "re-simulate from the entry block instead of restoring the checkpoint")
		critp     = fs.Bool("critpath", false, "tag replayed events with critical-path categories (requires -from-start)")
		traceOut  = fs.String("trace", "", "write the replayed window as Chrome/Perfetto JSON to this file")
		eventsOut = fs.String("events", "", "write the replayed window as a diff-able .events.json file")
		tracerCap = fs.Int("tracer-cap", 0, "replay tracer ring capacity in events (0 = default)")
	)
	pos := parseArgs(fs, args, 1)
	b, err := flight.ReadBundle(pos[0])
	if err != nil {
		fatal(err)
	}
	res, err := eval.ReplayBundle(b, eval.ReplayOptions{
		ToCycle:       *toCycle,
		ToBlock:       *toBlock,
		TracerCap:     *tracerCap,
		FromStart:     *fromStart,
		TrackCritPath: *critp,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replayed %s (%s)\n", b.Manifest.Meta["bench"], b.Dir)
	if *fromStart {
		fmt.Printf("  from        entry block (full re-simulation)\n")
	} else {
		fmt.Printf("  restored at cycle %d\n", res.RestoredAt)
	}
	fmt.Printf("  stopped at  cycle %d (%d blocks, %d insts committed)\n", res.Cycles, res.Blocks, res.Insts)
	fmt.Printf("  window      %d events\n", len(res.Events))
	if *eventsOut != "" {
		if err := flight.WriteEvents(*eventsOut, "replay", res.Events); err != nil {
			fatal(err)
		}
		fmt.Printf("  events: -> %s\n", *eventsOut)
	}
	if *traceOut != "" {
		if err := obs.WriteChromeFile(*traceOut, res.Tracer, nil); err != nil {
			fatal(err)
		}
		fmt.Printf("  trace: %d events (%d dropped) -> %s\n", res.Tracer.Total(), res.Tracer.Dropped(), *traceOut)
	}
}

func cmdDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	var (
		from   = fs.Int64("from", 0, "compare only events at or after this cycle")
		window = fs.String("window", "", "window name to load from bundle dirs (default: the sole window)")
	)
	pos := parseArgs(fs, args, 2)
	a, err := loadWindow(pos[0], *window)
	if err != nil {
		fatal(err)
	}
	b, err := loadWindow(pos[1], *window)
	if err != nil {
		fatal(err)
	}
	if *from > 0 {
		a = flight.WindowFrom(a, *from)
		b = flight.WindowFrom(b, *from)
	}
	fmt.Printf("a: %s (%d events)\n", pos[0], len(a))
	fmt.Printf("b: %s (%d events)\n", pos[1], len(b))
	if d := flight.Compare(a, b); d != nil {
		fmt.Printf("windows DIVERGE at %s\n", d.Reason)
		os.Exit(1)
	}
	fmt.Println("windows are bit-identical (after canonicalization)")
}

// loadWindow reads events from a bundle directory or a .events.json file.
func loadWindow(path, name string) ([]obs.Event, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		b, err := flight.ReadBundle(path)
		if err != nil {
			return nil, err
		}
		return b.Window(name)
	}
	return flight.ReadEvents(path)
}

func sortedKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
