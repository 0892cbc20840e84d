package grid

import (
	"testing"
	"testing/quick"
	"time"
)

// matrixGrids and matrixClusters are the site universe of the
// pair-generalization property: every ordered cross-grid pair of matrixGrids
// can be enumerated, and the empty entries exercise the grid-level-view
// and unplaced cases.
var (
	matrixGrids    = []string{"", "g0", "g1", "g2", "g3"}
	matrixClusters = []string{"", "ce00", "ce01"}
)

// site decodes two generator bytes into a site of the universe.
func site(g, c byte) Site {
	return Site{
		Grid:    matrixGrids[int(g)%len(matrixGrids)],
		Cluster: matrixClusters[int(c)%len(matrixClusters)],
	}
}

// fullMatrix returns the class model with every ordered cross-grid pair
// of the universe listed at the given link.
func fullMatrix(l Link, classes *Links) *Links {
	m := &Links{IntraGrid: classes.IntraGrid, WAN: classes.WAN, Pairs: make(map[GridPair]Link)}
	for _, from := range matrixGrids {
		for _, to := range matrixGrids {
			if from != to {
				m.Pairs[GridPair{From: from, To: to}] = l
			}
		}
	}
	return m
}

// TestLinksPairsGeneralizeClasses is the strict-generalization property:
// a pair matrix with every cross-grid pair set to the class model's WAN
// constants (over the same classes, for the intra-grid class) must price
// every (from, to) site pair bit-identically to the classes alone — Local
// flag, bandwidth and latency alike. It is what licenses swapping class
// links for a measured per-pair matrix without re-validating the transfer
// model.
func TestLinksPairsGeneralizeClasses(t *testing.T) {
	classes := []*Links{
		DefaultWAN(),
		{IntraGrid: Link{MBps: 5, Latency: time.Second}, WAN: Link{MBps: 1, Latency: 10 * time.Second}},
		{}, // the location-blind zero model: a zero WAN entry must degrade to local
	}
	for _, links := range classes {
		matrix := fullMatrix(links.WAN, links)
		f := func(fg, fc, tg, tc byte) bool {
			from, to := site(fg, fc), site(tg, tc)
			return matrix.Link(from, to) == links.Link(from, to)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("matrix diverges from class model %+v: %v", links, err)
		}
	}
}

// TestLinksPairOverridesAndClassFallback pins the matrix semantics
// directly: a listed pair is priced as listed (asymmetrically if so
// configured), an unlisted pair falls back to its class, zero classes
// mean local, and the always-local cases (unplaced, same cluster,
// grid-level view of resident data) are never consulted from the matrix.
func TestLinksPairOverridesAndClassFallback(t *testing.T) {
	fast := Link{MBps: 100, Latency: time.Second}
	slow := Link{MBps: 1, Latency: 30 * time.Second}
	m := DefaultWAN()
	m.Pairs = map[GridPair]Link{
		{From: "g1", To: "g0"}: fast,
		{From: "g0", To: "g1"}: slow,
	}
	a, b := Site{Grid: "g0", Cluster: "ce00"}, Site{Grid: "g1", Cluster: "ce00"}
	far := Site{Grid: "g9", Cluster: "ce00"}

	if got := m.Link(b, a); got != fast {
		t.Errorf("listed pair g1>g0 = %+v, want the fast link", got)
	}
	if got := m.Link(a, b); got != slow {
		t.Errorf("listed pair g0>g1 = %+v, want the slow link (asymmetric)", got)
	}
	if got, want := m.Link(far, a), DefaultWAN().Link(far, a); got != want {
		t.Errorf("unlisted pair = %+v, want the WAN class's %+v", got, want)
	}
	if got := m.Link(Site{}, a); !got.Local {
		t.Errorf("unplaced replica = %+v, want local", got)
	}
	if got := m.Link(a, a); !got.Local {
		t.Errorf("same site = %+v, want local", got)
	}
	if got := m.Link(a, Site{Grid: "g0"}); !got.Local {
		t.Errorf("grid-level view of resident data = %+v, want local", got)
	}

	bare := &Links{Pairs: map[GridPair]Link{{From: "g1", To: "g0"}: fast}}
	if got := bare.Link(far, a); !got.Local {
		t.Errorf("zero classes unlisted pair = %+v, want local", got)
	}
	if got := bare.Link(b, a); got != fast {
		t.Errorf("zero classes listed pair = %+v, want the fast link", got)
	}
}

// TestLinksIntraGridPair pins that a (g, g) entry prices cross-cluster
// movement inside one grid, while same-cluster and grid-level consumers
// stay local — the matrix can refine the intra-grid class too.
func TestLinksIntraGridPair(t *testing.T) {
	intra := Link{MBps: 50, Latency: 100 * time.Millisecond}
	m := &Links{Pairs: map[GridPair]Link{{From: "g0", To: "g0"}: intra}}
	a := Site{Grid: "g0", Cluster: "ce00"}
	b := Site{Grid: "g0", Cluster: "ce01"}
	if got := m.Link(a, b); got != intra {
		t.Errorf("cross-cluster intra-grid = %+v, want the listed intra link", got)
	}
	if got := m.Link(a, a); !got.Local {
		t.Errorf("same cluster = %+v, want local", got)
	}
	if got := m.Link(a, Site{Grid: "g0"}); !got.Local {
		t.Errorf("grid-level consumer = %+v, want local", got)
	}
}

// TestLinksAllLocal pins the catalog's all-local flag, the licence the
// matchmaker and the broker take to skip stage planning: it is set
// exactly when both classes and every listed pair degrade to local.
func TestLinksAllLocal(t *testing.T) {
	for _, tc := range []struct {
		name  string
		links *Links
		want  bool
	}{
		{"zero value", &Links{}, true},
		{"LocalLinks", LocalLinks(), true},
		{"DefaultWAN", DefaultWAN(), false},
		{"intra-grid class", &Links{IntraGrid: Link{Latency: time.Second}}, false},
		{"pair only", &Links{Pairs: map[GridPair]Link{{From: "g0", To: "g1"}: {MBps: 1}}}, false},
		{"zero-valued pairs", &Links{Pairs: map[GridPair]Link{{From: "g0", To: "g1"}: {}, {From: "g1", To: "g0"}: {Local: true}}}, true},
		{"SetLinks(nil)", nil, true},
	} {
		c := NewCatalog()
		c.SetLinks(DefaultWAN())
		c.SetLinks(tc.links)
		if got := c.AllLocal(); got != tc.want {
			t.Errorf("%s: AllLocal = %v, want %v", tc.name, got, tc.want)
		}
	}
	if !NewCatalog().AllLocal() {
		t.Error("a fresh catalog is not all-local")
	}
}

// TestSetLinksCopies pins that the catalog prices from its own copy of
// the model: editing the caller's Links (a class or a pair) after SetLinks
// changes neither the prices nor the all-local flag.
func TestSetLinksCopies(t *testing.T) {
	l := &Links{Pairs: map[GridPair]Link{}}
	c := NewCatalog()
	c.SetLinks(l)
	l.WAN = Link{MBps: 1}
	l.Pairs[GridPair{From: "g0", To: "g1"}] = Link{MBps: 1}
	a, b := Site{Grid: "g0", Cluster: "ce00"}, Site{Grid: "g1", Cluster: "ce00"}
	if got := c.Link(a, b); !got.Local || !c.AllLocal() {
		t.Errorf("caller edits reached the catalog: link %+v, AllLocal %v", got, c.AllLocal())
	}
}
