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
//
// A tuple's Items are positional: Items[i] is the item matched on the
// emitting node's Ports()[i]. Each node caches its port list when it is
// built, and a child's ports form one contiguous range of its parent's,
// so operators merge children by copying ranges, never by port name.
// Offer returns tuples in a buffer the node reuses on its next Offer; see
// Strategy.Offer for what a caller may keep.
package iterstrat

import (
	"fmt"
	"strings"

	"repro/internal/provenance"
)

// Tuple is one complete invocation input set: the matched item for every
// port below the emitting node, aligned with that node's Ports(), plus the
// tuple's index vector.
type Tuple struct {
	Index []int
	Items []*provenance.Item
}

// Strategy is a node of an iteration-strategy tree.
type Strategy interface {
	// Ports returns all port names under this node, left to right. The
	// slice is cached by the node and must not be modified.
	Ports() []string
	// Offer presents an item arriving on port and returns the tuples that
	// became complete at this node, in a deterministic order, each with
	// Items aligned with Ports().
	//
	// The returned slice belongs to the node and is valid only until its
	// next Offer or Reset: a caller that keeps tuples copies the Tuple
	// values out. Those values stay valid — Index vectors and the Items of
	// a dot or cross node's tuples are never reused — except a bare
	// leaf's Items, which its next Offer overwrites.
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
func Port(name string) Strategy { return &leaf{port: [1]string{name}} }

// Dot returns a dot-product node over the children. It panics if fewer
// than one child is given.
func Dot(children ...Strategy) Strategy {
	if len(children) == 0 {
		panic("iterstrat: Dot with no children")
	}
	return &dot{node: newNode(children), pending: make(map[string]*row)}
}

// Cross returns a cross-product node over the children. It panics if fewer
// than one child is given.
func Cross(children ...Strategy) Strategy {
	if len(children) == 0 {
		panic("iterstrat: Cross with no children")
	}
	return &cross{
		node:      newNode(children),
		seenIdx:   make([][][]int, len(children)),
		seenItems: make([][]*provenance.Item, len(children)),
		pick:      make([]int, len(children)),
	}
}

// SinglePort reports whether s is a bare single-port leaf (the default
// strategy of one-input services) and returns its port name. Leaves are
// stateless pass-throughs — an item on the port becomes one tuple keyed by
// the item's own index — which lets an enactor bypass the general Offer
// machinery on this, the most common, shape.
func SinglePort(s Strategy) (string, bool) {
	if l, ok := s.(*leaf); ok {
		return l.port[0], true
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
	port [1]string // the port as a one-element Ports() view
	item [1]*provenance.Item
	out  [1]Tuple
}

func (l *leaf) Ports() []string { return l.port[:] }

func (l *leaf) Offer(port string, it *provenance.Item) []Tuple {
	if port != l.port[0] {
		return nil
	}
	l.item[0] = it
	l.out[0] = Tuple{Index: it.Index, Items: l.item[:]}
	return l.out[:]
}

func (l *leaf) Count(portCounts map[string]int) int { return portCounts[l.port[0]] }
func (l *leaf) String() string                      { return l.port[0] }
func (l *leaf) Reset()                              {}

// node is what the operators share: the children, their concatenated port
// list, and where each child's range starts in it.
type node struct {
	children []Strategy
	ports    []string
	// off[i] is the position of child i's first port in ports;
	// off[len(children)] == len(ports).
	off []int
	out []Tuple // Offer's reused result buffer
}

func newNode(children []Strategy) node {
	n := node{children: children, off: make([]int, len(children)+1)}
	for i, c := range children {
		n.off[i] = len(n.ports)
		n.ports = append(n.ports, c.Ports()...)
	}
	n.off[len(children)] = len(n.ports)
	return n
}

func (n *node) Ports() []string { return n.ports }

// owner returns the index of the child whose range holds port, or -1.
func (n *node) owner(port string) int {
	for i, p := range n.ports {
		if p == port {
			ci := 0
			for n.off[ci+1] <= i {
				ci++
			}
			return ci
		}
	}
	return -1
}

// dot

type dot struct {
	node
	// pending holds, per index key, the row of items matched so far.
	pending map[string]*row
	free    []*row // recycled rows
	keyBuf  []byte
}

// row is one partially matched dot tuple: items aligned with the node's
// ports, filled a child range at a time.
type row struct {
	key     string
	items   []*provenance.Item
	missing int // children that have not delivered yet
}

func (d *dot) Offer(port string, it *provenance.Item) []Tuple {
	ci := d.owner(port)
	if ci < 0 {
		return nil
	}
	d.out = d.out[:0]
	lo, hi := d.off[ci], d.off[ci+1]
	for _, t := range d.children[ci].Offer(port, it) {
		d.keyBuf = provenance.AppendKey(d.keyBuf[:0], t.Index)
		r := d.pending[string(d.keyBuf)]
		if r == nil {
			r = d.newRow()
			d.pending[r.key] = r
		}
		// A child's first slot is nil until it delivers; a repeated index
		// from the same child overwrites its earlier tuple.
		if r.items[lo] == nil {
			r.missing--
		}
		copy(r.items[lo:hi], t.Items)
		if r.missing == 0 {
			// The completing child's index is the tuple's index, and the
			// row's items are handed over as the tuple's Items.
			d.out = append(d.out, Tuple{Index: t.Index, Items: r.items})
			delete(d.pending, r.key)
			*r = row{}
			d.free = append(d.free, r)
		}
	}
	return d.out
}

// newRow returns an empty row keyed by the key in keyBuf, recycling a
// completed row's struct when one is free.
func (d *dot) newRow() *row {
	var r *row
	if n := len(d.free); n > 0 {
		r = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		r = new(row)
	}
	r.key = string(d.keyBuf)
	r.items = make([]*provenance.Item, len(d.ports))
	r.missing = len(d.children)
	return r
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
	clear(d.pending)
	for _, c := range d.children {
		c.Reset()
	}
}

// cross

type cross struct {
	node
	// Per child, every tuple emitted so far: seenIdx[i][k] is the index of
	// child i's k-th tuple, and its items are the k-th run of
	// off[i+1]-off[i] entries in seenItems[i]. Both are copies, since a
	// child reuses its own buffers.
	seenIdx   [][][]int
	seenItems [][]*provenance.Item
	pick      []int // combinations' odometer: one seen tuple per child
}

func (c *cross) Offer(port string, it *provenance.Item) []Tuple {
	ci := c.owner(port)
	if ci < 0 {
		return nil
	}
	c.out = c.out[:0]
	for _, t := range c.children[ci].Offer(port, it) {
		c.seenIdx[ci] = append(c.seenIdx[ci], t.Index)
		c.seenItems[ci] = append(c.seenItems[ci], t.Items...)
		c.combinations(ci)
	}
	return c.out
}

// combinations pairs child ci's newest tuple with every already-seen
// combination of the other children, appending to out in odometer order
// (child 0 slowest), with index vectors concatenated in child order.
func (c *cross) combinations(ci int) {
	for i := range c.children {
		if i != ci && len(c.seenIdx[i]) == 0 {
			return
		}
		c.pick[i] = 0
	}
	c.pick[ci] = len(c.seenIdx[ci]) - 1
	for {
		c.out = append(c.out, c.merge())
		i := len(c.children) - 1
		for ; i >= 0; i-- {
			if i == ci {
				continue
			}
			if c.pick[i]++; c.pick[i] < len(c.seenIdx[i]) {
				break
			}
			c.pick[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// merge builds the tuple of the children's picked tuples.
func (c *cross) merge() Tuple {
	n := 0
	for i, k := range c.pick {
		n += len(c.seenIdx[i][k])
	}
	var t Tuple
	if n > 0 {
		// All-constant parts keep a nil index (key "*"), as appending
		// nothing to nil does.
		t.Index = make([]int, 0, n)
	}
	t.Items = make([]*provenance.Item, len(c.ports))
	for i, k := range c.pick {
		t.Index = append(t.Index, c.seenIdx[i][k]...)
		w := c.off[i+1] - c.off[i]
		copy(t.Items[c.off[i]:], c.seenItems[i][k*w:(k+1)*w])
	}
	return t
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
	for i, ch := range c.children {
		c.seenIdx[i] = nil
		c.seenItems[i] = nil
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
