// Package provenance tracks the history of every data item flowing through
// a workflow execution.
//
// Under data and service parallelism, items are computed out of order and
// may overtake one another, which the paper identifies as a causality
// problem for dot-product iteration strategies (Sec. 4.1): results must be
// paired by origin, not by completion order. Each item therefore carries a
// history tree recording the complete chain of processings that produced
// it, and an index vector locating it in the iteration space of its
// sources. Each item is its tree's root, linked to the items it was
// derived from. Index vectors drive dot-product matching; history trees
// unambiguously identify data for traces and debugging.
package provenance

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/arena"
)

// Item is a data token: a value plus its identity in the iteration space
// and its derivation history. An item is its own history tree's root: it
// records which processor produced it, on which port, from which input
// items.
type Item struct {
	// ID is unique within a Tracker (one workflow execution).
	ID int
	// Value is the payload: a GFN, a URL, or a literal parameter.
	Value string
	// Index is the item's index vector: the coordinates of the item in the
	// iteration space spanned by the workflow's data sources. A source item
	// has a one-dimensional index; a cross product concatenates dimensions.
	Index []int
	// Processor that produced the item: the source's name for a source
	// item, "" only for constants.
	Processor string
	// Port the item was emitted on (empty for sources and constants).
	Port string
	// Inputs are the items consumed to produce this one. Empty for source
	// items and constants.
	Inputs []*Item
}

// Tracker mints items with execution-unique IDs. The zero value is ready
// to use. Items live until the end of the execution, so the tracker hands
// them out from a chunked arena rather than allocating each one
// individually — one execution mints one item per data token, and the
// arena keeps that off the enactor's per-event allocation budget.
type Tracker struct {
	nextID int
	items  arena.Chunked[Item]
}

// NewTracker returns a fresh tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Minted returns how many items have been created.
func (t *Tracker) Minted() int { return t.nextID }

// Source mints an item produced by a data source: index vector [idx].
func (t *Tracker) Source(source string, idx int, value string) *Item {
	it := t.mint(value, []int{idx})
	it.Processor = source
	return it
}

// Constant mints an index-free item (a workflow constant). Constants match
// any index in a dot product.
func (t *Tracker) Constant(value string) *Item {
	return t.mint(value, nil)
}

// Derive mints an item produced by processor on port with the given index
// vector, consuming the given inputs. The item keeps the inputs slice as
// its Inputs, so the caller must not modify it afterwards; the outputs of
// one invocation may share it.
func (t *Tracker) Derive(processor, port, value string, index []int, inputs ...*Item) *Item {
	it := t.mint(value, index)
	it.Processor = processor
	it.Port = port
	it.Inputs = inputs
	return it
}

func (t *Tracker) mint(value string, index []int) *Item {
	it := t.items.New()
	it.ID = t.nextID
	it.Value = value
	it.Index = index
	t.nextID++
	return it
}

// Key returns the canonical string form of an index vector, used as the
// dot-product matching key. Constants (nil index) return "*": they align
// with every index.
func Key(index []int) string {
	var buf [32]byte
	return string(AppendKey(buf[:0], index))
}

// AppendKey appends Key(index) to dst and returns the extended buffer, so
// callers that only look the key up, or build a longer name around it,
// need not allocate the key string.
func AppendKey(dst []byte, index []int) []byte {
	if index == nil {
		return append(dst, '*')
	}
	if len(index) == 0 {
		return append(dst, "()"...)
	}
	for i, v := range index {
		if i > 0 {
			dst = append(dst, '.')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return dst
}

// Key returns the item's dot-product matching key.
func (it *Item) Key() string { return Key(it.Index) }

// String renders an item compactly: value plus index.
func (it *Item) String() string {
	return fmt.Sprintf("%s[%s]", it.Value, it.Key())
}

// Render returns the item's history tree in a functional notation, e.g.
//
//	crestMatch[0]( crestLines[0]( ref[0], flo[0] ), ref[0] )
//
// which identifies the data unambiguously (Sec. 4.1).
func (it *Item) Render() string {
	var b strings.Builder
	it.render(&b)
	return b.String()
}

func (it *Item) render(b *strings.Builder) {
	name := it.Processor
	if name == "" {
		name = "const"
	}
	b.WriteString(name)
	if it.Port != "" {
		b.WriteByte(':')
		b.WriteString(it.Port)
	}
	b.WriteByte('[')
	b.WriteString(Key(it.Index))
	b.WriteByte(']')
	if len(it.Inputs) == 0 {
		return
	}
	b.WriteString("( ")
	for i, in := range it.Inputs {
		if i > 0 {
			b.WriteString(", ")
		}
		in.render(b)
	}
	b.WriteString(" )")
}

// Depth returns the height of the item's history tree (a source item has
// depth 1).
func (it *Item) Depth() int {
	max := 0
	for _, in := range it.Inputs {
		if d := in.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Sources returns the distinct (processor, index-key) source leaves this
// item ultimately derives from, in first-visit order.
func (it *Item) Sources() []string {
	var out []string
	seen := make(map[string]bool)
	var walk func(*Item)
	walk = func(m *Item) {
		if len(m.Inputs) == 0 {
			key := m.Processor + "[" + Key(m.Index) + "]"
			if !seen[key] {
				seen[key] = true
				out = append(out, key)
			}
			return
		}
		for _, in := range m.Inputs {
			walk(in)
		}
	}
	walk(it)
	return out
}

// SameIndex reports whether two index vectors are identical. A nil vector
// (constant) matches anything.
func SameIndex(a, b []int) bool {
	if a == nil || b == nil {
		return true
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
