package iterstrat

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/provenance"
	"repro/internal/rng"
)

// offerAll feeds items in the given order and collects all emitted tuples.
func offerAll(s Strategy, offers []offer) []Tuple {
	var out []Tuple
	for _, o := range offers {
		out = append(out, s.Offer(o.port, o.item)...)
	}
	return out
}

// itemOn returns the item a tuple emitted by s matched on port: the entry
// at the port's position in s.Ports().
func itemOn(s Strategy, tu Tuple, port string) *provenance.Item {
	for i, p := range s.Ports() {
		if p == port {
			return tu.Items[i]
		}
	}
	panic("iterstrat test: no port " + port + " in " + s.String())
}

type offer struct {
	port string
	item *provenance.Item
}

func sourceItems(tr *provenance.Tracker, source string, n int) []*provenance.Item {
	items := make([]*provenance.Item, n)
	for i := 0; i < n; i++ {
		items[i] = tr.Source(source, i, fmt.Sprintf("%s%d", source, i))
	}
	return items
}

func TestDotPairsByIndex(t *testing.T) {
	tr := provenance.NewTracker()
	s := Dot(Port("a"), Port("b"))
	as := sourceItems(tr, "A", 3)
	bs := sourceItems(tr, "B", 3)
	var offers []offer
	for i := 0; i < 3; i++ {
		offers = append(offers, offer{"a", as[i]}, offer{"b", bs[i]})
	}
	tuples := offerAll(s, offers)
	if len(tuples) != 3 {
		t.Fatalf("dot emitted %d tuples, want 3", len(tuples))
	}
	for i, tu := range tuples {
		a, b := itemOn(s, tu, "a"), itemOn(s, tu, "b")
		if a.Value != fmt.Sprintf("A%d", i) || b.Value != fmt.Sprintf("B%d", i) {
			t.Errorf("tuple %d pairs %s with %s", i, a, b)
		}
	}
}

// The causality problem (paper Sec. 4.1): under data+service parallelism
// items arrive out of order; a dot product must still pair A_i with B_i.
func TestDotOutOfOrderArrival(t *testing.T) {
	tr := provenance.NewTracker()
	s := Dot(Port("a"), Port("b"))
	as := sourceItems(tr, "A", 4)
	bs := sourceItems(tr, "B", 4)
	offers := []offer{
		{"a", as[2]}, {"b", bs[0]}, {"b", bs[2]}, // A2+B2 completes here
		{"a", as[0]},                             // A0+B0 completes here
		{"a", as[1]}, {"a", as[3]}, {"b", bs[3]}, // A3+B3 completes here
		{"b", bs[1]}, // A1+B1 completes here
	}
	tuples := offerAll(s, offers)
	if len(tuples) != 4 {
		t.Fatalf("emitted %d tuples, want 4", len(tuples))
	}
	for _, tu := range tuples {
		ai, bi := itemOn(s, tu, "a").Index[0], itemOn(s, tu, "b").Index[0]
		if ai != bi {
			t.Errorf("dot paired A%d with B%d despite provenance indices", ai, bi)
		}
	}
}

func TestDotMinCardinality(t *testing.T) {
	tr := provenance.NewTracker()
	s := Dot(Port("a"), Port("b"))
	var offers []offer
	for _, it := range sourceItems(tr, "A", 5) {
		offers = append(offers, offer{"a", it})
	}
	for _, it := range sourceItems(tr, "B", 3) {
		offers = append(offers, offer{"b", it})
	}
	tuples := offerAll(s, offers)
	if len(tuples) != 3 {
		t.Fatalf("dot of 5 and 3 emitted %d tuples, want min(5,3)=3", len(tuples))
	}
}

func TestCrossAllPairs(t *testing.T) {
	tr := provenance.NewTracker()
	s := Cross(Port("a"), Port("b"))
	var offers []offer
	for _, it := range sourceItems(tr, "A", 3) {
		offers = append(offers, offer{"a", it})
	}
	for _, it := range sourceItems(tr, "B", 4) {
		offers = append(offers, offer{"b", it})
	}
	tuples := offerAll(s, offers)
	if len(tuples) != 12 {
		t.Fatalf("cross of 3 and 4 emitted %d tuples, want 12", len(tuples))
	}
	seen := make(map[string]bool)
	for _, tu := range tuples {
		key := provenance.Key(tu.Index)
		if seen[key] {
			t.Fatalf("duplicate cross tuple %s", key)
		}
		seen[key] = true
		if len(tu.Index) != 2 {
			t.Fatalf("cross index = %v, want 2 dimensions", tu.Index)
		}
	}
}

func TestCrossIndexConcatenationOrder(t *testing.T) {
	tr := provenance.NewTracker()
	s := Cross(Port("a"), Port("b"))
	a2 := tr.Source("A", 2, "A2")
	b5 := tr.Source("B", 5, "B5")
	// Offer b first: the index must still be (a,b) = [2 5], child order.
	s.Offer("b", b5)
	tuples := s.Offer("a", a2)
	if len(tuples) != 1 {
		t.Fatalf("got %d tuples", len(tuples))
	}
	if k := provenance.Key(tuples[0].Index); k != "2.5" {
		t.Fatalf("index key = %q, want \"2.5\" (child order, not arrival order)", k)
	}
}

func TestComposedCrossOfDot(t *testing.T) {
	// cross(dot(a,b), c): the Bronze pattern of iterating image pairs
	// against a parameter list.
	tr := provenance.NewTracker()
	s := Cross(Dot(Port("a"), Port("b")), Port("c"))
	var offers []offer
	for _, it := range sourceItems(tr, "A", 3) {
		offers = append(offers, offer{"a", it})
	}
	for _, it := range sourceItems(tr, "B", 3) {
		offers = append(offers, offer{"b", it})
	}
	for _, it := range sourceItems(tr, "C", 2) {
		offers = append(offers, offer{"c", it})
	}
	tuples := offerAll(s, offers)
	if len(tuples) != 6 {
		t.Fatalf("cross(dot(3,3),2) emitted %d, want 6", len(tuples))
	}
	for _, tu := range tuples {
		if len(tu.Index) != 2 {
			t.Fatalf("index = %v, want [pair, param]", tu.Index)
		}
		if itemOn(s, tu, "a").Index[0] != itemOn(s, tu, "b").Index[0] {
			t.Fatal("inner dot misaligned inside cross")
		}
	}
}

func TestComposedDotOfCross(t *testing.T) {
	// dot(cross(a,b), cross(c,d)): matches identical 2-D indices.
	tr := provenance.NewTracker()
	s := Dot(Cross(Port("a"), Port("b")), Cross(Port("c"), Port("d")))
	var offers []offer
	for _, src := range []string{"a", "b", "c", "d"} {
		for _, it := range sourceItems(tr, src, 2) {
			offers = append(offers, offer{src, it})
		}
	}
	tuples := offerAll(s, offers)
	if len(tuples) != 4 {
		t.Fatalf("dot(cross(2,2),cross(2,2)) emitted %d, want 4", len(tuples))
	}
	for _, tu := range tuples {
		if itemOn(s, tu, "a").Index[0] != itemOn(s, tu, "c").Index[0] ||
			itemOn(s, tu, "b").Index[0] != itemOn(s, tu, "d").Index[0] {
			t.Fatalf("outer dot paired mismatched 2-D indices: %v", tu.Index)
		}
	}
}

func TestSingleChildOperatorsAreIdentity(t *testing.T) {
	tr := provenance.NewTracker()
	for _, s := range []Strategy{Dot(Port("a")), Cross(Port("a"))} {
		items := sourceItems(tr, "A", 3)
		var n int
		for _, it := range items {
			n += len(s.Offer("a", it))
		}
		if n != 3 {
			t.Errorf("%s emitted %d tuples for 3 items, want 3", s, n)
		}
	}
}

func TestOfferUnknownPortIgnored(t *testing.T) {
	tr := provenance.NewTracker()
	s := Dot(Port("a"), Port("b"))
	if out := s.Offer("zzz", tr.Source("Z", 0, "z")); out != nil {
		t.Fatalf("unknown port emitted %v", out)
	}
}

func TestCount(t *testing.T) {
	counts := map[string]int{"a": 5, "b": 3, "c": 4}
	cases := []struct {
		s    Strategy
		want int
	}{
		{Port("a"), 5},
		{Dot(Port("a"), Port("b")), 3},
		{Cross(Port("a"), Port("b")), 15},
		{Cross(Dot(Port("a"), Port("b")), Port("c")), 12},
		{Dot(Port("a"), Port("b"), Port("c")), 3},
		{Cross(Port("a"), Port("b"), Port("c")), 60},
	}
	for _, c := range cases {
		if got := c.s.Count(counts); got != c.want {
			t.Errorf("%s.Count = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestString(t *testing.T) {
	s := Cross(Dot(Port("a"), Port("b")), Port("c"))
	if got := s.String(); got != "cross(dot(a,b),c)" {
		t.Errorf("String = %q", got)
	}
}

func TestPortsOrder(t *testing.T) {
	s := Cross(Dot(Port("x"), Port("y")), Port("z"))
	got := s.Ports()
	want := []string{"x", "y", "z"}
	if len(got) != len(want) {
		t.Fatalf("Ports = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ports = %v, want %v", got, want)
		}
	}
}

func TestValidateDuplicatePort(t *testing.T) {
	if err := Validate(Dot(Port("a"), Port("a"))); err == nil {
		t.Fatal("duplicate port not rejected")
	}
	if err := Validate(Cross(Dot(Port("a"), Port("b")), Port("c"))); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
}

func TestReset(t *testing.T) {
	tr := provenance.NewTracker()
	s := Cross(Port("a"), Port("b"))
	s.Offer("a", tr.Source("A", 0, "A0"))
	s.Offer("b", tr.Source("B", 0, "B0"))
	s.Reset()
	// After reset, previously seen items are forgotten.
	out := s.Offer("a", tr.Source("A", 1, "A1"))
	if len(out) != 0 {
		t.Fatalf("reset cross still remembered old items: %v", out)
	}
}

func TestEmptyOperatorsPanic(t *testing.T) {
	for name, f := range map[string]func(){"dot": func() { Dot() }, "cross": func() { Cross() }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s() with no children did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestDotEmitsEachIndexOnce(t *testing.T) {
	tr := provenance.NewTracker()
	s := Dot(Port("a"), Port("b"))
	s.Offer("a", tr.Source("A", 0, "A0"))
	first := s.Offer("b", tr.Source("B", 0, "B0"))
	if len(first) != 1 {
		t.Fatalf("first completion emitted %d", len(first))
	}
}

// Property: for any arrival interleaving, dot(a,b) emits exactly
// min(n,m) tuples and every tuple is index-aligned.
func TestQuickDotAnyOrder(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n, m := int(nRaw%10)+1, int(mRaw%10)+1
		tr := provenance.NewTracker()
		var offers []offer
		for _, it := range sourceItems(tr, "A", n) {
			offers = append(offers, offer{"a", it})
		}
		for _, it := range sourceItems(tr, "B", m) {
			offers = append(offers, offer{"b", it})
		}
		r := rng.New(seed)
		perm := r.Perm(len(offers))
		shuffled := make([]offer, len(offers))
		for i, p := range perm {
			shuffled[i] = offers[p]
		}
		s := Dot(Port("a"), Port("b"))
		tuples := offerAll(s, shuffled)
		if len(tuples) != min(n, m) {
			return false
		}
		for _, tu := range tuples {
			if itemOn(s, tu, "a").Index[0] != itemOn(s, tu, "b").Index[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: for any arrival interleaving, cross(a,b) emits exactly n*m
// distinct index pairs.
func TestQuickCrossAnyOrder(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n, m := int(nRaw%8)+1, int(mRaw%8)+1
		tr := provenance.NewTracker()
		var offers []offer
		for _, it := range sourceItems(tr, "A", n) {
			offers = append(offers, offer{"a", it})
		}
		for _, it := range sourceItems(tr, "B", m) {
			offers = append(offers, offer{"b", it})
		}
		r := rng.New(seed)
		perm := r.Perm(len(offers))
		s := Cross(Port("a"), Port("b"))
		keys := make(map[string]bool)
		for _, p := range perm {
			for _, tu := range s.Offer(offers[p].port, offers[p].item) {
				keys[provenance.Key(tu.Index)] = true
			}
		}
		return len(keys) == n*m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Count agrees with actual emission counts for composed trees.
func TestQuickCountMatchesEmission(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw, kRaw uint8) bool {
		n, m, k := int(nRaw%5)+1, int(mRaw%5)+1, int(kRaw%3)+1
		tr := provenance.NewTracker()
		s := Cross(Dot(Port("a"), Port("b")), Port("c"))
		var offers []offer
		for _, it := range sourceItems(tr, "A", n) {
			offers = append(offers, offer{"a", it})
		}
		for _, it := range sourceItems(tr, "B", m) {
			offers = append(offers, offer{"b", it})
		}
		for _, it := range sourceItems(tr, "C", k) {
			offers = append(offers, offer{"c", it})
		}
		r := rng.New(seed)
		perm := r.Perm(len(offers))
		emitted := 0
		for _, p := range perm {
			emitted += len(s.Offer(offers[p].port, offers[p].item))
		}
		want := s.Count(map[string]int{"a": n, "b": m, "c": k})
		return emitted == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Deterministic emission order: replaying identical offers yields identical
// tuple sequences (required for simulator determinism).
func TestDeterministicEmissionOrder(t *testing.T) {
	mk := func() []string {
		tr := provenance.NewTracker()
		s := Cross(Port("a"), Port("b"))
		var keys []string
		for _, it := range sourceItems(tr, "A", 3) {
			for _, tu := range s.Offer("a", it) {
				keys = append(keys, provenance.Key(tu.Index))
			}
		}
		for _, it := range sourceItems(tr, "B", 3) {
			for _, tu := range s.Offer("b", it) {
				keys = append(keys, provenance.Key(tu.Index))
			}
		}
		return keys
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("replay length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("emission order differs at %d: %v vs %v", i, a, b)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func newTrackerForTest() *provenance.Tracker { return provenance.NewTracker() }

func TestCountHandlesZero(t *testing.T) {
	s := Dot(Port("a"), Port("b"))
	if got := s.Count(map[string]int{"a": 0, "b": 5}); got != 0 {
		t.Fatalf("Count with empty input = %d, want 0", got)
	}
	c := Cross(Port("a"), Port("b"))
	if got := c.Count(map[string]int{"a": 0, "b": 5}); got != 0 {
		t.Fatalf("cross Count with empty input = %d, want 0", got)
	}
}

func TestOperatorsIgnoreForeignPorts(t *testing.T) {
	tr := provenance.NewTracker()
	d := Dot(Port("a"), Port("b"))
	c := Cross(Port("x"), Port("y"))
	if out := d.Offer("x", tr.Source("X", 0, "x")); out != nil {
		t.Fatalf("dot accepted foreign port: %v", out)
	}
	if out := c.Offer("a", tr.Source("A", 0, "a")); out != nil {
		t.Fatalf("cross accepted foreign port: %v", out)
	}
}

func TestDotResetClearsPending(t *testing.T) {
	tr := provenance.NewTracker()
	d := Dot(Port("a"), Port("b"))
	d.Offer("a", tr.Source("A", 0, "A0"))
	d.Reset()
	if out := d.Offer("b", tr.Source("B", 0, "B0")); len(out) != 0 {
		t.Fatalf("reset dot kept pending state: %v", out)
	}
}
