package analysis

import "repro/internal/cc"

// Options configures an analysis run.
type Options struct {
	// StackBytes is the working-stack capacity used by the stack-bound
	// pass (TV007). Zero selects the runtime default of 2048 bytes.
	StackBytes int
	// GapBudgetCycles is the capacitor budget, in cycle-equivalents, that
	// an atomic region must fit within (TV008). Zero disables the budget
	// comparison; structural (unbounded-region) checking always runs.
	GapBudgetCycles int64
}

// DefaultStackBytes mirrors the runtime's default working-stack arena.
const DefaultStackBytes = 2048

// AnalyzeSource parses, type-checks, compiles, and analyzes a TICS-C
// program, returning all diagnostics sorted by source position. A non-nil
// error means the program did not compile (use FormatError to render it);
// diagnostics are only produced for valid programs.
func AnalyzeSource(src string, opts Options) ([]Diagnostic, error) {
	if opts.StackBytes <= 0 {
		opts.StackBytes = DefaultStackBytes
	}
	f, err := cc.Parse(src)
	if err != nil {
		return nil, err
	}
	unit, err := cc.Analyze(f)
	if err != nil {
		return nil, err
	}
	// Compile without optimization so every instruction keeps a faithful
	// source position, and without instrumentation so checkpoint placement
	// reflects the program text, not a runtime policy.
	prog, err := cc.Compile(src, cc.Options{O0: true})
	if err != nil {
		return nil, err
	}

	var diags []Diagnostic
	diags = append(diags, runWAR(prog)...)
	diags = append(diags, runLints(unit)...)
	diags = append(diags, runStack(unit, prog, opts.StackBytes)...)
	diags = append(diags, runGap(unit, opts.GapBudgetCycles)...)
	sortDiags(diags)
	return diags, nil
}
