package iterstrat

// Op identifies the node type of a strategy tree.
type Op int

// Strategy node types.
const (
	OpPort Op = iota
	OpDot
	OpCross
)

// Decompose exposes the structure of a strategy node: its operator, its
// children (nil for leaves), and its port name (empty for operators). The
// enactor's job-grouping pass uses it to rewrite strategy trees.
func Decompose(s Strategy) (op Op, children []Strategy, port string) {
	switch n := s.(type) {
	case *leaf:
		return OpPort, nil, n.port[0]
	case *dot:
		return OpDot, n.children, ""
	case *cross:
		return OpCross, n.children, ""
	default:
		panic("iterstrat: unknown strategy implementation")
	}
}

// Rename returns a fresh strategy tree with every port name mapped through
// f. The result shares no matching state with s.
func Rename(s Strategy, f func(string) string) Strategy {
	op, children, port := Decompose(s)
	switch op {
	case OpPort:
		return Port(f(port))
	case OpDot:
		out := make([]Strategy, len(children))
		for i, c := range children {
			out[i] = Rename(c, f)
		}
		return Dot(out...)
	default:
		out := make([]Strategy, len(children))
		for i, c := range children {
			out[i] = Rename(c, f)
		}
		return Cross(out...)
	}
}

// Clone returns a fresh strategy tree with no shared matching state, so
// one workflow definition can be executed many times.
func Clone(s Strategy) Strategy {
	return Rename(s, func(p string) string { return p })
}
