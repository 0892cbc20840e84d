// Package analysis is a minimal, dependency-free analogue of the
// golang.org/x/tools/go/analysis framework: an Analyzer is a named check
// with a Run function, a Pass hands it one type-checked package, and
// diagnostics are reported through the Pass. It exists because this repo
// builds offline against the standard library only, yet wants real
// static enforcement of its determinism invariants (see the maprange,
// simtime and exporteddoc subpackages and cmd/moteurvet, the driver that
// runs them standalone or as a `go vet -vettool`).
//
// The subset implemented here is deliberately small: no facts, no
// modular result passing, no suggested fixes. Each analyzer sees one
// package (syntax + types) and reports positioned diagnostics; drivers
// sort and print them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check: a short name used as the
// diagnostic prefix, a doc string shown by the driver's help output, and
// the Run function applied to every package the driver loads.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flag names. It
	// must be a valid Go identifier.
	Name string
	// Doc is the analyzer's documentation: first line is a summary.
	Doc string
	// Run applies the check to one package and reports findings through
	// pass.Report. A non-nil error aborts the whole driver run and is
	// reserved for internal failures, not findings.
	Run func(*Pass) error
}

// Diagnostic is one finding at a position inside the analyzed package.
type Diagnostic struct {
	// Pos locates the finding in the Pass's FileSet.
	Pos token.Pos
	// Message is the human-readable finding, without position prefix.
	Message string
}

// Pass carries one type-checked package through an Analyzer's Run
// function, mirroring golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	// Analyzer is the check currently running, so shared helpers can
	// prefix diagnostics.
	Analyzer *Analyzer
	// Fset maps token.Pos values of Files to file positions.
	Fset *token.FileSet
	// Files is the package's parsed syntax, including comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo records type and object resolution for Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// The determinism analyzers skip test files: tests may freely iterate
// maps or read the wall clock without affecting replay fingerprints.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// SourceFiles returns the package's non-test files, the surface the
// determinism analyzers actually police.
func (p *Pass) SourceFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		if !p.IsTestFile(f.Pos()) {
			out = append(out, f)
		}
	}
	return out
}

// Critical reports whether the determinism analyzers (maprange, simtime)
// police file, a non-test source file of package pkgPath given by its
// base name. Every repro/internal package is policed: each one feeds the
// engine, directly or through the job specs, tuples and worlds it builds,
// so anything it does can leak into event order, golden fingerprints, or
// replayed statistics. Exempt are the analyzers themselves
// (repro/internal/analysis and its subpackages), which never run inside
// a simulation, and the daemon's clock.go, which holds the wall clock
// behind the Clock interface by design.
func Critical(pkgPath, file string) bool {
	const internal = "repro/internal/"
	switch {
	case !strings.HasPrefix(pkgPath, internal):
		return false
	case pkgPath == internal+"analysis" || strings.HasPrefix(pkgPath, internal+"analysis/"):
		return false
	case pkgPath == internal+"daemon" && file == "clock.go":
		return false
	}
	return true
}
