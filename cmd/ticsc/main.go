// Command ticsc is the TICS-C compiler driver: it compiles a TICS-C source
// file (or a named built-in benchmark), instruments and links it for a
// chosen runtime, and reports sections or disassembly.
//
//	ticsc -runtime tics -O 2 -dump sections program.c
//	ticsc -app bc -runtime chinchilla            # reproduces the recursion rejection
//	ticsc -app ar -dump asm | less
//	ticsc -vet program.c                         # static hazard analysis only
//
// Compile errors are reported on stderr as file:line:col: error: msg and
// exit with a non-zero status.
package main

import (
	"flag"
	"fmt"
	"os"

	tics "repro"
	"repro/internal/analysis"
	"repro/internal/apps"
)

func main() {
	var (
		runtime = flag.String("runtime", "tics", "target runtime: plain|tics|tics-st|mementos|chinchilla|alpaca|ink|mayfly")
		optLvl  = flag.Int("O", 2, "optimization level (0 or 2)")
		segment = flag.Int("segment", 0, "TICS working-stack segment bytes (0 = program minimum)")
		appName = flag.String("app", "", "compile a built-in benchmark (ar|bc|cf|ghm|ghm-tinyos|swap|bubble|timekeeping) instead of a file")
		dump    = flag.String("dump", "sections", "what to print: sections|asm|none")
		vet     = flag.Bool("vet", false, "run the intermittence hazard analyzer instead of building")
	)
	flag.Parse()

	src, label, err := loadSource(*appName, flag.Args(), tics.RuntimeKind(*runtime))
	if err != nil {
		fatal(err)
	}

	if *vet {
		diags, err := analysis.AnalyzeSource(src, analysis.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, analysis.FormatError(label, err))
			os.Exit(2)
		}
		analysis.WriteText(os.Stdout, label, diags)
		if analysis.MaxSeverity(diags) >= analysis.Warn {
			os.Exit(1)
		}
		return
	}

	opts := tics.BuildOptions{
		Runtime:      tics.RuntimeKind(*runtime),
		O0:           *optLvl < 2,
		SegmentBytes: *segment,
	}
	if app, ok := apps.ByName(*appName); ok && isTask(opts.Runtime) {
		taskSrc, tasks, edges := app.TaskSource, app.Tasks, app.Edges
		if opts.Runtime == tics.RTMayFly {
			taskSrc, tasks, edges = app.ForMayfly()
		}
		src = taskSrc
		opts.Tasks, opts.Edges = tasks, edges
	}

	img, err := tics.Build(src, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, analysis.FormatError(label, err))
		os.Exit(1)
	}
	fmt.Printf("built %s for %s: %d functions, entry %#x\n",
		label, opts.Runtime, len(img.Funcs), img.EntryPC)
	switch *dump {
	case "sections":
		fmt.Printf(".text  %6d B\n.data  %6d B\n.bss   %6d B\n", img.Sect.Text, img.Sect.Data, img.Sect.BSS)
		fmt.Printf("stack  %6d B at %#x\nruntime %5d B at %#x\n", img.StackLen, img.StackBase, img.RuntimeLen, img.RuntimeBase)
		fmt.Printf("min TICS segment: %d B\n", img.MinSegmentBytes())
	case "asm":
		asm, err := img.Disassemble()
		if err != nil {
			fatal(err)
		}
		fmt.Print(asm)
	case "none":
	default:
		fatal(fmt.Errorf("unknown -dump %q", *dump))
	}
}

func isTask(k tics.RuntimeKind) bool {
	return k == tics.RTAlpaca || k == tics.RTInK || k == tics.RTMayFly
}

func loadSource(appName string, args []string, runtime tics.RuntimeKind) (src, label string, err error) {
	if appName != "" {
		app, ok := apps.ByName(appName)
		if !ok {
			return "", "", fmt.Errorf("unknown app %q", appName)
		}
		return app.Source, appName, nil
	}
	if len(args) != 1 {
		return "", "", fmt.Errorf("usage: ticsc [-flags] program.c (or -app NAME)")
	}
	b, err := os.ReadFile(args[0])
	if err != nil {
		return "", "", err
	}
	return string(b), args[0], nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ticsc:", err)
	os.Exit(1)
}
