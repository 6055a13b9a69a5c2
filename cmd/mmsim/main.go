// Command mmsim boots the simulated M-Machine, loads an assembled
// program into a fresh code segment, runs it as a user thread, and
// reports the final register file and machine statistics.
//
// The program receives a read/write pointer to a scratch data segment
// in r1 (size set by -data). Multiple copies can be run as concurrent
// threads from distinct protection domains with -threads.
//
// Usage:
//
//	mmsim prog.s
//	mmsim -threads 4 -data 65536 -scheme flush-tlb -wide prog.s
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/capverify"
	"repro/internal/jit"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/migrate"
	"repro/internal/persist"
	"repro/internal/telemetry"
	"repro/internal/word"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threads := fs.Int("threads", 1, "number of concurrent threads (each its own protection domain)")
	dataBytes := fs.Uint64("data", 4096, "scratch data segment size handed to each thread in r1")
	maxCycles := fs.Uint64("max-cycles", 50_000_000, "cycle budget")
	schemeName := fs.String("scheme", "guarded", "protection scheme: guarded | flush-tlb | flush-all")
	verbose := fs.Bool("v", false, "dump full register file per thread")
	trace := fs.Bool("trace", false, "print every issued instruction (cycle, cluster, thread, pc)")
	traceOut := fs.String("trace-out", "", "write the full event trace to a file: .jsonl suffix = JSON Lines, otherwise Chrome trace_event JSON (load in chrome://tracing or Perfetto)")
	metrics := fs.Bool("metrics", false, "print a JSON snapshot of the metrics registry after the run")
	serveAddr := fs.String("serve", "", "serve live metrics over HTTP while running (host:port; port 0 picks a free port): /metrics, /metrics.json, /healthz, /trace")
	serveFor := fs.Duration("serve-for", 0, "with -serve: keep the endpoint up this long after the run finishes (lets mmtop watch a short program)")
	flightOut := fs.String("flight-out", "", "arm the flight recorder and dump its ring (JSONL) to this file if the machine takes an unrecovered fault")
	profile := fs.Bool("profile", false, "sample executed instruction addresses and print a flat hot-spot profile")
	wide := fs.Bool("wide", false, "enable 3-wide LIW issue per cluster")
	debug := fs.Bool("debug", false, "interactive debugger (program must come from a file, not stdin)")
	verify := fs.Bool("verify", false, "statically verify the program first; refuse to boot it if it provably faults")
	useJIT := fs.Bool("jit", true, "enable the check-eliding superblock translator (bit-identical results; -trace/-profile/-debug fall back to the interpreter)")
	ckptDir := fs.String("checkpoint-dir", "", "write incremental crash-safe checkpoints (base + dirty-page deltas) to this directory while running")
	ckptEvery := fs.Uint64("checkpoint-every", 250_000, "with -checkpoint-dir: cycles between checkpoint generations")
	restore := fs.Bool("restore", false, "boot from the newest intact generation in -checkpoint-dir instead of loading a program (pass the same -scheme/-wide as the original run)")
	ckptLs := fs.Bool("checkpoint-ls", false, "list the generations in -checkpoint-dir (gen, parent, kind, cycle, bytes) and exit")
	migrateAt := fs.Uint64("migrate-at", 0, "live-migrate the machine after this many cycles: iterative pre-copy over a simulated wire, fingerprint handshake, then cut the run over to the standby replica (requires -migrate-to)")
	migrateTo := fs.String("migrate-to", "", "with -migrate-at: commit the migrated image as a checkpoint store in this directory (resume it cross-process with -restore -checkpoint-dir)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *ckptLs {
		if *ckptDir == "" {
			fmt.Fprintln(stderr, "mmsim: -checkpoint-ls needs -checkpoint-dir")
			return 2
		}
		st, err := persist.Open(*ckptDir, 1)
		if err != nil {
			fmt.Fprintln(stderr, "mmsim:", err)
			return 1
		}
		descs, err := st.Describe()
		if err != nil {
			fmt.Fprintln(stderr, "mmsim:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%-5s %-6s %-5s %12s %12s\n", "gen", "parent", "kind", "cycle", "bytes")
		for _, d := range descs {
			kind := "base"
			if d.Delta {
				kind = "delta"
			}
			fmt.Fprintf(stdout, "%-5d %-6d %-5s %12d %12d\n", d.Gen, d.Parent, kind, d.Cycle, d.Bytes)
		}
		fmt.Fprintf(stdout, "mmsim: %d generation(s) in %s\n", len(descs), *ckptDir)
		return 0
	}
	if (*migrateAt == 0) != (*migrateTo == "") {
		fmt.Fprintln(stderr, "mmsim: -migrate-at and -migrate-to go together")
		return 2
	}
	if *migrateAt > 0 && *ckptDir != "" {
		fmt.Fprintln(stderr, "mmsim: -migrate-at does not combine with -checkpoint-dir (the migrated image becomes its own store)")
		return 2
	}
	if *migrateAt > 0 && *debug {
		fmt.Fprintln(stderr, "mmsim: -migrate-at does not combine with -debug")
		return 2
	}
	if *restore {
		if *ckptDir == "" {
			fmt.Fprintln(stderr, "mmsim: -restore needs -checkpoint-dir")
			return 2
		}
		if fs.NArg() != 0 {
			fmt.Fprintln(stderr, "mmsim: -restore resumes the checkpointed program; do not pass one")
			return 2
		}
	} else if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: mmsim [flags] <file.s | ->")
		return 2
	}

	var prog *asm.Program
	if !*restore {
		var src []byte
		var err error
		if name := fs.Arg(0); name == "-" {
			src, err = io.ReadAll(stdin)
		} else {
			src, err = os.ReadFile(name)
		}
		if err != nil {
			fmt.Fprintln(stderr, "mmsim:", err)
			return 1
		}

		display := fs.Arg(0)
		if display == "-" {
			display = "<stdin>"
		}
		prog, err = asm.AssembleNamed(display, string(src))
		if err != nil {
			fmt.Fprintln(stderr, "mmsim:", err)
			return 1
		}
		if *verify {
			rep := capverify.Verify(prog, capverify.Config{DataBytes: *dataBytes})
			if rep.HasFault() {
				for _, d := range rep.Faults() {
					fmt.Fprintln(stderr, "mmsim:", d)
				}
				fmt.Fprintln(stderr, "mmsim: program provably faults; refusing to boot (run mmlint for details)")
				return 1
			}
		}
	}

	cfg := machine.MMachine()
	cfg.WideIssue = *wide
	switch *schemeName {
	case "guarded":
		cfg.Scheme = machine.SchemeGuarded
	case "flush-tlb":
		cfg.Scheme = machine.SchemeFlushTLB
	case "flush-all":
		cfg.Scheme = machine.SchemeFlushAll
	default:
		fmt.Fprintf(stderr, "mmsim: unknown scheme %q\n", *schemeName)
		return 2
	}
	var store *persist.Store
	if *ckptDir != "" {
		st, err := persist.Open(*ckptDir, 1)
		if err != nil {
			fmt.Fprintln(stderr, "mmsim:", err)
			return 1
		}
		store = st
	}
	var k *kernel.Kernel
	if *restore {
		k2, gen, cycle, err := persist.RestoreNewest(store, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "mmsim: restore:", err)
			return 1
		}
		k = k2
		fmt.Fprintf(stdout, "mmsim: restored generation %d (captured at cycle %d) from %s\n", gen, cycle, *ckptDir)
	} else {
		k2, err := kernel.New(cfg)
		if err != nil {
			fmt.Fprintln(stderr, "mmsim:", err)
			return 1
		}
		k = k2
	}
	var saver *persist.Saver
	if store != nil {
		sv, err := persist.NewSaver(store, persist.DefaultBaseEvery)
		if err != nil {
			fmt.Fprintln(stderr, "mmsim:", err)
			return 1
		}
		saver = sv
	}
	if *useJIT {
		// Before RegisterMetrics so the jit.* counters are published.
		k.M.EnableJIT(jit.DefaultConfig())
	}
	// All tracing runs through one telemetry.Tracer: -trace attaches a
	// human-readable sink for instruction events, -trace-out streams the
	// full event set to a file.
	var tracer *telemetry.Tracer
	if *trace || *traceOut != "" {
		tracer = telemetry.NewTracer(telemetry.DefaultRingSize)
		k.SetTracer(tracer)
	}
	if *trace {
		tracer.Enable(telemetry.EvInstr)
		tracer.Attach(telemetry.SinkFunc(func(ev telemetry.Event) {
			if ev.Kind == telemetry.EvInstr {
				fmt.Fprintf(stdout, "[%8d] c%d t%d %#010x  %s\n", ev.Cycle, ev.Cluster, ev.Thread, ev.Addr, ev.Detail)
			}
		}))
	}
	var closeTrace func() error
	if *traceOut != "" {
		tracer.EnableAll()
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "mmsim:", err)
			return 1
		}
		if strings.HasSuffix(*traceOut, ".jsonl") {
			sink := telemetry.NewJSONLSink(f)
			tracer.Attach(sink)
			closeTrace = func() error {
				if err := sink.Err(); err != nil {
					f.Close()
					return err
				}
				return f.Close()
			}
		} else {
			sink := telemetry.NewChromeSink(f)
			tracer.Attach(sink)
			closeTrace = func() error {
				if err := sink.Close(); err != nil {
					f.Close()
					return err
				}
				return f.Close()
			}
		}
	}
	var prof *telemetry.Profiler
	if *profile {
		prof = telemetry.NewProfiler(1)
		k.M.Profiler = prof
	}
	var reg *telemetry.Registry
	if *metrics || *serveAddr != "" {
		reg = telemetry.NewRegistry()
		if *serveAddr != "" {
			// A live endpoint wants the latency distributions too.
			k.M.EnableHistograms()
		}
		k.RegisterMetrics(reg)
		if store != nil {
			store.RegisterMetrics(reg, "persist")
		}
	}
	var srv *http.Server
	if *serveAddr != "" {
		s, addr, err := telemetry.Serve(*serveAddr, reg, tracer)
		if err != nil {
			fmt.Fprintln(stderr, "mmsim:", err)
			return 1
		}
		srv = s
		fmt.Fprintf(stdout, "mmsim: serving metrics on http://%s/metrics\n", addr)
	}
	if *flightOut != "" {
		k.M.Flight = telemetry.NewFlightRecorder(telemetry.DefaultFlightSize)
		dumped := false
		k.M.OnFlightDump = func(reason string) {
			if dumped {
				return
			}
			dumped = true
			f, err := os.Create(*flightOut)
			if err != nil {
				fmt.Fprintln(stderr, "mmsim: flight-out:", err)
				return
			}
			defer f.Close()
			if err := k.M.Flight.Dump(f, reason, 0); err != nil {
				fmt.Fprintln(stderr, "mmsim: flight-out:", err)
				return
			}
			fmt.Fprintf(stderr, "mmsim: flight recorder dumped to %s (%s)\n", *flightOut, reason)
		}
	}

	var ths []*machine.Thread
	var code []codeSeg
	if *restore {
		// The checkpoint carries the threads; there is no program to load
		// (and no verifier contract to hand the translator).
		ths = k.M.Threads()
	}
	for i := 0; !*restore && i < *threads; i++ {
		ip, err := k.LoadProgram(prog, false)
		if err != nil {
			fmt.Fprintln(stderr, "mmsim:", err)
			return 1
		}
		seg, err := k.AllocSegment(*dataBytes)
		if err != nil {
			fmt.Fprintln(stderr, "mmsim:", err)
			return 1
		}
		th, err := k.Spawn(k.NewDomain(), ip, map[int]word.Word{1: seg.Word()})
		if err != nil {
			fmt.Fprintln(stderr, "mmsim:", err)
			return 1
		}
		// This loader establishes exactly capverify's entry contract
		// (r1 = RW pointer to a >= -data byte segment, nothing else),
		// so the translator may elide the checks the verifier proved.
		k.M.JITRegister(prog, ip.Addr(), capverify.Config{DataBytes: *dataBytes})
		ths = append(ths, th)
		code = append(code, codeSeg{start: ip.Addr(), size: prog.ByteSize(), thread: th.ID})
	}

	if *debug {
		if fs.Arg(0) == "-" {
			fmt.Fprintln(stderr, "mmsim: -debug needs the program from a file (stdin drives the debugger)")
			return 2
		}
		debugREPL(k, stdin, stdout, *maxCycles)
	} else if *migrateAt > 0 {
		budget := *migrateAt
		if budget > *maxCycles {
			budget = *maxCycles
		}
		ran := k.Run(budget)
		if k.M.Done() {
			fmt.Fprintln(stdout, "mmsim: program finished before -migrate-at; nothing to migrate")
		} else {
			recv := migrate.NewReceiver()
			link := migrate.NewLink(migrate.LinkConfig{})
			link.Deliver = recv.Deliver
			rep, err := migrate.Run(k, link, recv, func(c uint64) { ran += k.Run(c) }, migrate.Config{})
			if err != nil {
				fmt.Fprintln(stderr, "mmsim: migrate:", err)
				return 1
			}
			k2, err := kernel.Restore(cfg, rep.Image)
			if err != nil {
				fmt.Fprintln(stderr, "mmsim: migrate: standby boot:", err)
				return 1
			}
			if *useJIT {
				// The standby keeps the translator and the source's
				// proofs for the code the image holds where it was loaded.
				k2.M.EnableJIT(jit.DefaultConfig()).Inherit(k.M.JIT(), rep.Image.Holds)
			}
			mst, err := persist.Open(*migrateTo, 1)
			if err != nil {
				fmt.Fprintln(stderr, "mmsim:", err)
				return 1
			}
			sv, err := persist.NewSaver(mst, persist.DefaultBaseEvery)
			if err != nil {
				fmt.Fprintln(stderr, "mmsim:", err)
				return 1
			}
			if _, err := sv.Capture(k2, k.M.Cycle()); err != nil {
				fmt.Fprintln(stderr, "mmsim: migrate: commit image:", err)
				return 1
			}
			fmt.Fprintf(stdout, "mmsim: migration committed after %d rounds (%d pages, %d B on the wire, stw %d cycles); standby image is generation %d in %s\n",
				len(rep.Rounds), rep.TotalPages(), rep.Link.PayloadBytes, rep.STWCycles, sv.Gen(), *migrateTo)
			// Cutover: the rest of the run executes on the standby replica.
			k = k2
			if ran < *maxCycles {
				k.Run(*maxCycles - ran)
			}
			ths = k.M.Threads()
		}
	} else if saver == nil {
		k.Run(*maxCycles)
	} else {
		// Run in checkpoint-sized chunks: after each chunk, capture a
		// generation (a full base when the chain needs re-anchoring,
		// otherwise a dirty-page delta) and commit it atomically.
		for ran := uint64(0); ran < *maxCycles && !k.M.Done(); {
			chunk := *ckptEvery
			if rest := *maxCycles - ran; chunk > rest {
				chunk = rest
			}
			stepped := k.Run(chunk)
			if stepped == 0 {
				break
			}
			ran += stepped
			if _, err := saver.Capture(k, k.M.Cycle()); err != nil {
				fmt.Fprintln(stderr, "mmsim: checkpoint:", err)
				return 1
			}
		}
		fmt.Fprintf(stdout, "mmsim: %d checkpoint generation(s) in %s (newest gen %d)\n",
			store.Stats().Captures, *ckptDir, saver.Gen())
	}

	exit := 0
	for _, th := range ths {
		fmt.Fprintf(stdout, "thread %d: %v", th.ID, th.State)
		if th.Fault != nil {
			fmt.Fprintf(stdout, " (%v)", th.Fault)
			exit = 1
		}
		fmt.Fprintf(stdout, "  instret=%d\n", th.Instret)
		if *verbose {
			for r := 0; r < len(th.Regs); r++ {
				if !th.Regs[r].IsZero() {
					fmt.Fprintf(stdout, "  r%-2d = %v\n", r, th.Regs[r])
				}
			}
		} else {
			fmt.Fprintf(stdout, "  r1=%v r2=%v r3=%v r4=%v\n", th.Reg(1), th.Reg(2), th.Reg(3), th.Reg(4))
		}
	}

	st := k.M.Stats()
	cs := k.M.Cache.Stats()
	ts := k.M.Space.TLB.Stats()
	fmt.Fprintf(stdout, "cycles=%d instructions=%d ipc=%.2f switches=%d domain-swaps=%d stalls=%d\n",
		st.Cycles, st.Instructions, float64(st.Instructions)/float64(st.Cycles),
		st.Switches, st.DomainSwaps, st.StallCycles)
	fmt.Fprintf(stdout, "cache: hits=%d misses=%d conflicts=%d  tlb: hits=%d misses=%d flushes=%d\n",
		cs.Hits, cs.Misses, cs.ConflictCycles, ts.Hits, ts.Misses, ts.Flushes)

	if prof != nil {
		fmt.Fprintf(stdout, "\nflat profile (%d samples):\n%s",
			prof.Samples(), prof.Report(20, symbolizer(prog, code)))
	}
	if reg != nil {
		fmt.Fprintln(stdout, "\nmetrics:")
		if err := reg.Snapshot().WriteJSON(stdout); err != nil {
			fmt.Fprintln(stderr, "mmsim:", err)
			exit = 1
		}
		fmt.Fprintln(stdout)
	}
	if closeTrace != nil {
		if err := closeTrace(); err != nil {
			fmt.Fprintln(stderr, "mmsim: trace-out:", err)
			exit = 1
		}
	}
	if srv != nil {
		if *serveFor > 0 {
			time.Sleep(*serveFor)
		}
		srv.Close()
	}
	return exit
}

// codeSeg records where one thread's copy of the program was loaded, so
// the profiler can map sampled instruction addresses back to labels.
type codeSeg struct {
	start, size uint64
	thread      int
}

// symbolizer resolves a sampled address to "label+words" within the
// loaded program (annotated with the owning thread when several copies
// are loaded), falling back to the raw address.
func symbolizer(prog *asm.Program, code []codeSeg) func(addr uint64) string {
	if prog == nil { // restored run: no program image to symbolize against
		return func(addr uint64) string { return fmt.Sprintf("%#x", addr) }
	}
	type lab struct {
		word int
		name string
	}
	labels := make([]lab, 0, len(prog.Labels))
	for name, idx := range prog.Labels {
		labels = append(labels, lab{word: idx, name: name})
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].word < labels[j].word })
	return func(addr uint64) string {
		for _, cs := range code {
			if addr < cs.start || addr >= cs.start+cs.size {
				continue
			}
			w := int((addr - cs.start) / word.BytesPerWord)
			name := fmt.Sprintf("+%d", w)
			for _, l := range labels {
				if l.word > w {
					break
				}
				name = l.name
				if d := w - l.word; d > 0 {
					name = fmt.Sprintf("%s+%d", l.name, d)
				}
			}
			if len(code) > 1 {
				name = fmt.Sprintf("%s (t%d)", name, cs.thread)
			}
			return name
		}
		return fmt.Sprintf("%#x", addr)
	}
}

// debugREPL drives the machine interactively: b/w set break- and
// watchpoints, c continues, s steps cycles, r dumps registers, d
// disassembles, q quits.
func debugREPL(k *kernel.Kernel, stdin io.Reader, stdout io.Writer, maxCycles uint64) {
	d := machine.Attach(k.M)
	defer d.Detach()
	sc := bufio.NewScanner(stdin)
	fmt.Fprintln(stdout, "(mdb) commands: b <hex> | w <hex> | c | s [n] | r | d <hex> | q")
	for {
		fmt.Fprint(stdout, "(mdb) ")
		if !sc.Scan() {
			return
		}
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		arg := func() (uint64, bool) {
			if len(f) < 2 {
				fmt.Fprintln(stdout, "need an address")
				return 0, false
			}
			v, err := strconv.ParseUint(strings.TrimPrefix(f[1], "0x"), 16, 64)
			if err != nil {
				fmt.Fprintln(stdout, "bad address:", f[1])
				return 0, false
			}
			return v, true
		}
		switch f[0] {
		case "q":
			return
		case "b":
			if a, ok := arg(); ok {
				d.SetBreakpoint(a)
				fmt.Fprintf(stdout, "breakpoint @%#x\n", a)
			}
		case "w":
			if a, ok := arg(); ok {
				if err := d.Watch(a); err != nil {
					fmt.Fprintln(stdout, "watch:", err)
				} else {
					fmt.Fprintf(stdout, "watchpoint @%#x\n", a)
				}
			}
		case "c":
			if ev := d.Continue(maxCycles); ev != nil {
				fmt.Fprintln(stdout, ev)
			} else {
				fmt.Fprintf(stdout, "stopped: all threads done (cycle %d)\n", k.M.Cycle())
			}
		case "s":
			n := 1
			if len(f) > 1 {
				if v, err := strconv.Atoi(f[1]); err == nil {
					n = v
				}
			}
			for i := 0; i < n; i++ {
				if ev := d.StepCycle(); ev != nil {
					fmt.Fprintln(stdout, ev)
					break
				}
			}
			fmt.Fprintf(stdout, "cycle %d\n", k.M.Cycle())
		case "r":
			for _, th := range k.M.Threads() {
				fmt.Fprintf(stdout, "thread %d %v ip=%#x\n", th.ID, th.State, th.IP.Addr())
				for r := 0; r < len(th.Regs); r++ {
					if !th.Regs[r].IsZero() {
						fmt.Fprintf(stdout, "  r%-2d = %v\n", r, th.Regs[r])
					}
				}
			}
		case "d":
			if a, ok := arg(); ok {
				if text, err := d.Disassemble(a); err == nil {
					fmt.Fprintf(stdout, "%#x: %s\n", a, text)
				} else {
					fmt.Fprintln(stdout, "disassemble:", err)
				}
			}
		default:
			fmt.Fprintln(stdout, "unknown command")
		}
	}
}
