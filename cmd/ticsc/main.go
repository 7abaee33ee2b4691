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

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/replay"
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
	if *optLvl != 0 && *optLvl != 2 {
		fatal(fmt.Errorf("-O %d: the compiler has only -O0 and -O2", *optLvl))
	}

	src, label, err := loadSource(*appName, flag.Args())
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

	// A built-in app builds as every run of it does, so a task runtime
	// gets the app's task port (MayFly its loop-free one).
	spec := replay.Spec{App: *appName, Runtime: *runtime, Segment: *segment, O0: *optLvl < 2}
	if spec.App == "" {
		spec.Source = src
	}
	img, _, err := replay.BuildImage(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, analysis.FormatError(label, err))
		os.Exit(1)
	}
	fmt.Printf("built %s for %s: %d functions, entry %#x\n",
		label, spec.Runtime, len(img.Funcs), img.EntryPC)
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

func loadSource(appName string, args []string) (src, label string, err error) {
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
