package iterstrat

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/provenance"
	"repro/internal/rng"
)

// refNode is a naive reference matcher with the strategy semantics spelled
// out by port name: a dot finds its pending row by scanning every row, a
// cross re-pairs the new tuple with every seen tuple of the other children
// by recursion, and tuples carry their items in a map.
type refNode struct {
	op       Op
	port     string
	children []*refNode
	ports    []string
	rows     []*refRow    // dot: pending rows, creation order
	seen     [][]refTuple // cross: per child, every tuple so far
}

type refTuple struct {
	index []int
	items map[string]*provenance.Item
}

type refRow struct {
	key   string
	cells []*refTuple // per child; nil until the child delivers
}

func newRef(s Strategy) *refNode {
	op, children, port := Decompose(s)
	n := &refNode{op: op, port: port}
	if op == OpPort {
		n.ports = []string{port}
		return n
	}
	for _, c := range children {
		rc := newRef(c)
		n.children = append(n.children, rc)
		n.ports = append(n.ports, rc.ports...)
	}
	n.seen = make([][]refTuple, len(children))
	return n
}

func (n *refNode) offer(port string, it *provenance.Item) []refTuple {
	if n.op == OpPort {
		if port != n.port {
			return nil
		}
		return []refTuple{{index: it.Index, items: map[string]*provenance.Item{port: it}}}
	}
	ci := -1
	for i, c := range n.children {
		if slices.Contains(c.ports, port) {
			ci = i
		}
	}
	if ci < 0 {
		return nil
	}
	var out []refTuple
	for _, t := range n.children[ci].offer(port, it) {
		t := t
		if n.op == OpCross {
			n.seen[ci] = append(n.seen[ci], t)
			parts := make([]*refTuple, len(n.children))
			parts[ci] = &t
			out = n.pairAll(ci, 0, parts, out)
			continue
		}
		key := provenance.Key(t.index)
		var r *refRow
		for _, row := range n.rows {
			if row.key == key {
				r = row
			}
		}
		if r == nil {
			r = &refRow{key: key, cells: make([]*refTuple, len(n.children))}
			n.rows = append(n.rows, r)
		}
		r.cells[ci] = &t
		if slices.Contains(r.cells, nil) {
			continue
		}
		merged := refTuple{index: t.index, items: map[string]*provenance.Item{}}
		for i, cell := range r.cells {
			for _, p := range n.children[i].ports {
				merged.items[p] = cell.items[p]
			}
		}
		out = append(out, merged)
		n.rows = slices.DeleteFunc(n.rows, func(row *refRow) bool { return row == r })
	}
	return out
}

// pairAll extends parts with every seen tuple of children from child on
// (keeping parts[ci]), child 0 varying slowest.
func (n *refNode) pairAll(ci, child int, parts []*refTuple, out []refTuple) []refTuple {
	if child == len(n.children) {
		merged := refTuple{items: map[string]*provenance.Item{}}
		for i, p := range parts {
			merged.index = append(merged.index, p.index...)
			for _, port := range n.children[i].ports {
				merged.items[port] = p.items[port]
			}
		}
		return append(out, merged)
	}
	if child == ci {
		return n.pairAll(ci, child+1, parts, out)
	}
	for i := range n.seen[child] {
		parts[child] = &n.seen[child][i]
		out = n.pairAll(ci, child+1, parts, out)
	}
	return out
}

// randomTree builds a random strategy over ports: a leaf, or a dot or
// cross over a random split of the ports into contiguous groups, with
// single-child operators allowed while depth lasts.
func randomTree(r *rng.Source, ports []string, depth int) Strategy {
	if len(ports) == 1 && (depth == 0 || r.Bernoulli(0.6)) {
		return Port(ports[0])
	}
	var children []Strategy
	for len(ports) > 0 {
		k := 1 + r.Intn(len(ports))
		children = append(children, randomTree(r, ports[:k], depth-1))
		ports = ports[k:]
	}
	if r.Bernoulli(0.5) {
		return Dot(children...)
	}
	return Cross(children...)
}

// indexPool is what random items are indexed by: constants (nil), the
// empty vector, 1-D and 2-D indices, so dots meet repeated indices,
// constant keys and cross-shaped keys.
var indexPool = [][]int{nil, {}, {0}, {1}, {2}, {0, 1}, {1, 0}, {1, 1}}

func sameIndex(a, b []int) bool { return (a == nil) == (b == nil) && slices.Equal(a, b) }

// TestMatchRandomized checks the positional matcher against the reference
// model on random trees of 1-4 ports fed random offers: every offer must
// emit the same tuples, in the same order, with the same index vectors
// (nil-ness included) and the same item on every port.
func TestMatchRandomized(t *testing.T) {
	r := rng.New(7)
	names := []string{"p", "q", "s", "u"}
	for trial := 0; trial < 2000; trial++ {
		ports := names[:1+r.Intn(len(names))]
		s := randomTree(r, ports, 3)
		ref := newRef(s)
		if !slices.Equal(s.Ports(), ref.ports) {
			t.Fatalf("%s: Ports = %v, want %v", s, s.Ports(), ref.ports)
		}
		tr := provenance.NewTracker()
		nOffers := 1 + r.Intn(16)
		var log []string
		for o := 0; o < nOffers; o++ {
			port := ports[r.Intn(len(ports))]
			idx := indexPool[r.Intn(len(indexPool))]
			it := tr.Derive("src", port, fmt.Sprintf("%s%d", port, o), idx)
			log = append(log, fmt.Sprintf("%s:%s", port, provenance.Key(idx)))
			got := s.Offer(port, it)
			want := ref.offer(port, it)
			if len(got) != len(want) {
				t.Fatalf("%s after %v: emitted %d tuples, want %d", s, log, len(got), len(want))
			}
			for k := range want {
				if !sameIndex(got[k].Index, want[k].index) {
					t.Fatalf("%s after %v: tuple %d index %v, want %v", s, log, k, got[k].Index, want[k].index)
				}
				if len(got[k].Items) != len(ports) {
					t.Fatalf("%s: tuple %d has %d items for %d ports", s, k, len(got[k].Items), len(ports))
				}
				for i, p := range s.Ports() {
					if got[k].Items[i] != want[k].items[p] {
						t.Fatalf("%s after %v: tuple %d port %s = %v, want %v",
							s, log, k, p, got[k].Items[i], want[k].items[p])
					}
				}
			}
		}
	}
}

// TestDotOfferAllocs is the allocation gate of the dot product's steady
// state: one 2-port tuple costs its row's key string and its item slice,
// nothing per offered item.
func TestDotOfferAllocs(t *testing.T) {
	tr := provenance.NewTracker()
	const n = 256
	as, bs := sourceItems(tr, "A", n), sourceItems(tr, "B", n)
	s := Dot(Port("a"), Port("b"))
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		s.Offer("a", as[i%n])
		if len(s.Offer("b", bs[i%n])) != 1 {
			t.Fatal("dot did not complete the pair")
		}
		i++
	})
	if allocs > 2 {
		t.Fatalf("dot.Offer allocates %.0f objects per emitted tuple, want at most 2", allocs)
	}
}

// BenchmarkOffer measures one complete tuple per iteration: a pair through
// the Bronze Standard's dot(a,b), and a dot pair crossed with a
// three-item parameter list.
func BenchmarkOffer(b *testing.B) {
	tr := provenance.NewTracker()
	const n = 1024
	as, bs := sourceItems(tr, "A", n), sourceItems(tr, "B", n)
	b.Run("dot", func(b *testing.B) {
		s := Dot(Port("a"), Port("b"))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Offer("a", as[i%n])
			s.Offer("b", bs[i%n])
		}
	})
	b.Run("cross", func(b *testing.B) {
		s := Cross(Dot(Port("a"), Port("b")), Port("c"))
		for _, it := range sourceItems(tr, "C", 3) {
			s.Offer("c", it)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%n == 0 {
				// Bound the cross node's history: re-seed it per pass.
				b.StopTimer()
				s.Reset()
				for _, it := range sourceItems(tr, "C", 3) {
					s.Offer("c", it)
				}
				b.StartTimer()
			}
			s.Offer("a", as[i%n])
			s.Offer("b", bs[i%n])
		}
	})
}
