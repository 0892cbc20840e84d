// Package iterstrat implements iteration strategies: the composition rules
// that pair data arriving on the input ports of a service (paper Sec. 2.2,
// Fig. 3).
//
// Two base strategies are provided, as in the paper and in Taverna:
//
//   - Dot product: pairs items with the same index, producing min(n,m)
//     invocations — "a sequence of pairs".
//   - Cross product: pairs every item of one input with every item of the
//     other, producing n×m invocations.
//
// Strategies compose into trees: cross(dot(a,b), c) is legal and gives the
// data-interaction patterns that make the task-based representation
// combinatorial (Sec. 2.2).
//
// Matching is incremental: items are offered one at a time, in any order
// (data and service parallelism complete items out of order), and each
// offer returns the invocation tuples that just became complete. Matching
// is driven by provenance index vectors, which is what keeps dot products
// causally correct under reordering.
package iterstrat

import (
	"fmt"
	"strings"

	"repro/internal/provenance"
)

// Tuple is one complete invocation input set: the matched item for every
// port below the strategy node, plus the tuple's index vector.
type Tuple struct {
	Index []int
	Items map[string]*provenance.Item
}

// Strategy is a node of an iteration-strategy tree.
type Strategy interface {
	// Ports returns all port names under this node, left to right.
	Ports() []string
	// Offer presents an item arriving on port and returns the tuples that
	// became complete at this node, in a deterministic order.
	Offer(port string, it *provenance.Item) []Tuple
	// Count returns how many tuples this node will emit in total, given
	// the number of items each port will receive.
	Count(portCounts map[string]int) int
	// String renders the tree, e.g. "cross(dot(a,b),c)".
	String() string
	// Reset discards buffered state so the strategy can be reused.
	Reset()
}

// Port returns a leaf strategy: items on the named port pass through
// unchanged, keyed by their own index.
func Port(name string) Strategy { return &leaf{name: name} }

// Dot returns a dot-product node over the children. It panics if fewer
// than one child is given.
func Dot(children ...Strategy) Strategy {
	if len(children) == 0 {
		panic("iterstrat: Dot with no children")
	}
	return &dot{children: children, pending: make(map[string][]*Tuple)}
}

// Cross returns a cross-product node over the children. It panics if fewer
// than one child is given.
func Cross(children ...Strategy) Strategy {
	if len(children) == 0 {
		panic("iterstrat: Cross with no children")
	}
	return &cross{children: children, seen: make([][]Tuple, len(children))}
}

// SinglePort reports whether s is a bare single-port leaf (the default
// strategy of one-input services) and returns its port name. Leaves are
// stateless pass-throughs — an item on the port becomes one tuple keyed by
// the item's own index — which lets an enactor bypass the general Offer
// machinery on this, the most common, shape.
func SinglePort(s Strategy) (string, bool) {
	if l, ok := s.(*leaf); ok {
		return l.name, true
	}
	return "", false
}

// Validate checks that every port name under s is unique, returning an
// error naming the first duplicate.
func Validate(s Strategy) error {
	seen := make(map[string]bool)
	for _, p := range s.Ports() {
		if seen[p] {
			return fmt.Errorf("iterstrat: port %q appears more than once in %s", p, s)
		}
		seen[p] = true
	}
	return nil
}

// leaf

type leaf struct {
	name string
}

func (l *leaf) Ports() []string { return []string{l.name} }

func (l *leaf) Offer(port string, it *provenance.Item) []Tuple {
	if port != l.name {
		return nil
	}
	return []Tuple{{
		Index: it.Index,
		Items: map[string]*provenance.Item{l.name: it},
	}}
}

func (l *leaf) Count(portCounts map[string]int) int { return portCounts[l.name] }
func (l *leaf) String() string                      { return l.name }
func (l *leaf) Reset()                              {}

// dot

type dot struct {
	children []Strategy
	// pending[key] holds, per child, the tuple with that index key (nil if
	// the child has not produced it yet).
	pending map[string][]*Tuple
}

func (d *dot) Ports() []string {
	var out []string
	for _, c := range d.children {
		out = append(out, c.Ports()...)
	}
	return out
}

func (d *dot) owner(port string) int {
	for i, c := range d.children {
		for _, p := range c.Ports() {
			if p == port {
				return i
			}
		}
	}
	return -1
}

func (d *dot) Offer(port string, it *provenance.Item) []Tuple {
	ci := d.owner(port)
	if ci < 0 {
		return nil
	}
	var out []Tuple
	for _, t := range d.children[ci].Offer(port, it) {
		t := t
		key := provenance.Key(t.Index)
		row := d.pending[key]
		if row == nil {
			row = make([]*Tuple, len(d.children))
			d.pending[key] = row
		}
		row[ci] = &t
		complete := true
		for _, cell := range row {
			if cell == nil {
				complete = false
				break
			}
		}
		if complete {
			out = append(out, mergeAligned(t.Index, row))
			delete(d.pending, key)
		}
	}
	return out
}

func mergeAligned(index []int, row []*Tuple) Tuple {
	merged := Tuple{Index: index, Items: make(map[string]*provenance.Item)}
	for _, cell := range row {
		//moteur:orderinvariant children cover disjoint ports (a strategy names each port once), so every key is written once
		for p, it := range cell.Items {
			merged.Items[p] = it
		}
	}
	return merged
}

func (d *dot) Count(portCounts map[string]int) int {
	min := -1
	for _, c := range d.children {
		n := c.Count(portCounts)
		if min < 0 || n < min {
			min = n
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

func (d *dot) String() string { return renderTree("dot", d.children) }

func (d *dot) Reset() {
	d.pending = make(map[string][]*Tuple)
	for _, c := range d.children {
		c.Reset()
	}
}

// cross

type cross struct {
	children []Strategy
	seen     [][]Tuple // per child, all tuples emitted so far
}

func (c *cross) Ports() []string {
	var out []string
	for _, ch := range c.children {
		out = append(out, ch.Ports()...)
	}
	return out
}

func (c *cross) owner(port string) int {
	for i, ch := range c.children {
		for _, p := range ch.Ports() {
			if p == port {
				return i
			}
		}
	}
	return -1
}

func (c *cross) Offer(port string, it *provenance.Item) []Tuple {
	ci := c.owner(port)
	if ci < 0 {
		return nil
	}
	var out []Tuple
	for _, t := range c.children[ci].Offer(port, it) {
		c.seen[ci] = append(c.seen[ci], t)
		out = append(out, c.combinations(ci, t)...)
	}
	return out
}

// combinations pairs the new tuple from child ci with every already-seen
// combination of the other children, emitting index vectors concatenated
// in child order.
func (c *cross) combinations(ci int, newT Tuple) []Tuple {
	partial := make([]*Tuple, len(c.children))
	partial[ci] = &newT
	var out []Tuple
	var rec func(child int)
	rec = func(child int) {
		if child == len(c.children) {
			out = append(out, mergeCross(partial))
			return
		}
		if child == ci {
			rec(child + 1)
			return
		}
		for i := range c.seen[child] {
			partial[child] = &c.seen[child][i]
			rec(child + 1)
		}
		partial[child] = nil
	}
	rec(0)
	return out
}

func mergeCross(parts []*Tuple) Tuple {
	merged := Tuple{Items: make(map[string]*provenance.Item)}
	for _, p := range parts {
		merged.Index = append(merged.Index, p.Index...)
		//moteur:orderinvariant children cover disjoint ports (a strategy names each port once), so every key is written once
		for port, it := range p.Items {
			merged.Items[port] = it
		}
	}
	return merged
}

func (c *cross) Count(portCounts map[string]int) int {
	prod := 1
	for _, ch := range c.children {
		prod *= ch.Count(portCounts)
	}
	return prod
}

func (c *cross) String() string { return renderTree("cross", c.children) }

func (c *cross) Reset() {
	c.seen = make([][]Tuple, len(c.children))
	for _, ch := range c.children {
		ch.Reset()
	}
}

func renderTree(op string, children []Strategy) string {
	var b strings.Builder
	b.WriteString(op)
	b.WriteByte('(')
	for i, c := range children {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c.String())
	}
	b.WriteByte(')')
	return b.String()
}
