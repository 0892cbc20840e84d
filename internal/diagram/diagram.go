// Package diagram renders execution diagrams in the style of the paper's
// figures 4, 5 and 6: one row per service, one column per time quantum,
// with the data sets being processed written into the cells and crosses
// marking idle cycles. Data parallelism shows as several data sets in a
// single cell; service parallelism shows as different data sets in
// different rows of the same column.
package diagram

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// Render draws the trace as an ASCII diagram. Rows appear in the given
// processor order, first processor at the bottom as in the paper. The
// quantum sets the column width in virtual time; invocations are mapped to
// every column they overlap.
func Render(tr *core.Trace, procs []string, quantum time.Duration) string {
	if quantum <= 0 {
		panic("diagram: non-positive quantum")
	}
	var end sim.Time
	for _, inv := range tr.Invocations {
		if inv.Finished > end {
			end = inv.Finished
		}
	}
	cols := int((time.Duration(end) + quantum - 1) / quantum)
	if cols == 0 {
		cols = 1
	}

	// cells[proc][col] accumulates the labels of data sets active there.
	cells := make(map[string][]map[string]bool, len(procs))
	for _, p := range procs {
		row := make([]map[string]bool, cols)
		for c := range row {
			row[c] = make(map[string]bool)
		}
		cells[p] = row
	}
	for _, inv := range tr.Invocations {
		row, ok := cells[inv.Processor]
		if !ok {
			continue
		}
		label := "D" + inv.Key()
		first := int(time.Duration(inv.Started) / quantum)
		last := int((time.Duration(inv.Finished) - 1) / quantum)
		if time.Duration(inv.Finished) <= time.Duration(inv.Started) {
			last = first
		}
		for c := first; c <= last && c < cols; c++ {
			row[c][label] = true
		}
	}

	// Render with uniform column widths.
	text := make(map[string][]string, len(procs))
	width := 1
	for _, p := range procs {
		row := make([]string, cols)
		for c, set := range cells[p] {
			if len(set) == 0 {
				row[c] = "X"
			} else {
				labels := make([]string, 0, len(set))
				//moteur:orderinvariant labels are sorted immediately after collection
				for l := range set {
					labels = append(labels, l)
				}
				sort.Strings(labels)
				row[c] = strings.Join(labels, ",")
			}
			if len(row[c]) > width {
				width = len(row[c])
			}
		}
		text[p] = row
	}
	nameWidth := 1
	for _, p := range procs {
		if len(p) > nameWidth {
			nameWidth = len(p)
		}
	}

	var b strings.Builder
	for i := len(procs) - 1; i >= 0; i-- {
		p := procs[i]
		fmt.Fprintf(&b, "%-*s |", nameWidth, p)
		for _, cell := range text[p] {
			fmt.Fprintf(&b, " %-*s |", width, cell)
		}
		b.WriteByte('\n')
	}
	// Time axis.
	fmt.Fprintf(&b, "%-*s  ", nameWidth, "")
	for c := 0; c < cols; c++ {
		fmt.Fprintf(&b, " %-*d  ", width, c)
	}
	fmt.Fprintf(&b, "(x %v)\n", quantum)
	return b.String()
}
