package grid

import "time"

// Site identifies a storage location: a computing element's close storage
// element within a named grid. The zero Site is the "unplaced" location of
// a file registered through the location-free compatibility path
// (Catalog.Register): Links treats an unplaced replica as local to any
// consumer, which is what keeps single-grid code that never names
// locations behaving exactly as before the catalog learned about them.
type Site struct {
	// Grid names the infrastructure the replica lives on (Config.Name;
	// empty for a standalone grid built without a name).
	Grid string
	// Cluster names the computing element whose close SE holds the
	// replica (empty when only the grid is known, e.g. a broker's view of
	// a member grid as a whole).
	Cluster string
}

// IsZero reports whether the site is the unplaced location.
func (s Site) IsZero() bool { return s == Site{} }

// key returns the site's deterministic ordering key.
func (s Site) key() string { return s.Grid + "\x00" + s.Cluster }

// String renders the site as "grid/cluster" ("(unplaced)" for the zero
// site).
func (s Site) String() string {
	if s.IsZero() {
		return "(unplaced)"
	}
	return s.Grid + "/" + s.Cluster
}

// Link describes one edge of the transfer topology: the cost of moving a
// file from a replica's site to a consuming worker node.
type Link struct {
	// Local marks the replica as reachable through the consuming
	// cluster's close-SE link: the transfer is paid on that link's shared
	// streams at the cluster's own bandwidth, exactly as the pre-locality
	// transfer model did for every file. MBps and Latency are ignored.
	Local bool
	// MBps is the link bandwidth for a non-local fetch. Zero means the
	// fetch costs only its latency.
	MBps float64
	// Latency is the fixed per-file setup cost of a non-local fetch.
	Latency time.Duration
}

// Cost returns the estimated wall time of fetching sizeMB over the link
// (zero for a local link — the close-SE cost is uniform across replicas
// and is paid separately by the cluster's transfer phase).
func (l Link) Cost(sizeMB float64) time.Duration {
	if l.Local {
		return 0
	}
	d := l.Latency
	if l.MBps > 0 {
		d += time.Duration(sizeMB / l.MBps * float64(time.Second))
	}
	return d
}

// Links is the transfer topology of an LCG2-style federation: two link
// classes — intra-grid (another CE of the same grid) and WAN (another
// grid of the federation), with intra-cluster ≪ intra-grid ≪ WAN — plus
// a measured per-pair matrix layered over them, the shape of Venugopal et
// al.'s per-pair link quality ranking and Sadeghiram et al.'s distance
// matrices. A zero-valued class or pair is treated as local, so the zero
// Links value reproduces the location-blind transfer model exactly, and a
// matrix listing every ordered pair at the class constants prices every
// edge bit-identically to the classes alone. Link is a pure function of
// the configuration and the two sites: stage-in planning and broker
// ranking call it at arbitrary points of the event schedule, so any
// hidden state would break the simulator's determinism.
type Links struct {
	// IntraGrid is the edge between two clusters of the same grid. The
	// zero value treats intra-grid transfers as local (the default: the
	// paper's close-SE abstraction already folds intra-grid movement into
	// the cluster link).
	IntraGrid Link
	// WAN is the edge between two member grids of a federation. The zero
	// value treats cross-grid transfers as local (the PR 3 shared-catalog
	// behaviour, where federated staging was free).
	WAN Link
	// Pairs maps ordered grid pairs to their measured link, overriding
	// the class of the pair (a (g, g) entry refines g's cross-cluster
	// movement). A zero-valued link listed here degrades to local,
	// matching the class semantics.
	Pairs map[GridPair]Link
}

// Link returns the edge from the replica's site to the consumer. An
// unplaced replica, the same site, and a same-grid consumer with only
// grid-level knowledge (a broker's view) or the same close SE are local;
// otherwise a listed (fromGrid, toGrid) pair is priced by the matrix,
// and an unlisted one by its class: IntraGrid within a grid, WAN across.
func (l *Links) Link(from, to Site) Link {
	if from.IsZero() || from == to {
		return Link{Local: true}
	}
	if from.Grid == to.Grid && (from.Cluster == "" || to.Cluster == "" || from.Cluster == to.Cluster) {
		return Link{Local: true}
	}
	if p, ok := l.Pairs[GridPair{From: from.Grid, To: to.Grid}]; ok {
		return orLocal(p)
	}
	if from.Grid == to.Grid {
		return orLocal(l.IntraGrid)
	}
	return orLocal(l.WAN)
}

// allLocal reports whether every edge the model can return is local:
// both classes and every listed pair degrade to local.
func (l *Links) allLocal() bool {
	if !orLocal(l.IntraGrid).Local || !orLocal(l.WAN).Local {
		return false
	}
	//moteur:orderinvariant a conjunction over the pairs is order-free
	for _, p := range l.Pairs {
		if !orLocal(p).Local {
			return false
		}
	}
	return true
}

// orLocal degrades a zero-valued link class to local.
func orLocal(l Link) Link {
	if !l.Local && l.MBps == 0 && l.Latency == 0 {
		return Link{Local: true}
	}
	return l
}

// GridPair is one ordered (from, to) edge of the grid-level transfer
// topology: the direction a replica moves when a job on grid To consumes
// a file resident on grid From. The per-pair link matrix (Links.Pairs)
// and the contended WAN fabric key their state by it.
type GridPair struct {
	// From names the grid the replica lives on.
	From string
	// To names the grid consuming the replica.
	To string
}

// DefaultWAN returns the standard federation link model: intra-grid
// transfers stay local (close-SE abstraction) and cross-grid fetches pay a
// 2 MB/s WAN link with a 5 s per-file setup latency — 5× slower than the
// default clusters' 10 MB/s close-SE links, so the broker has a real
// data-movement cost to trade against middleware quality.
func DefaultWAN() *Links {
	return &Links{WAN: Link{MBps: 2, Latency: 5 * time.Second}}
}

// LocalLinks returns the link model that treats every replica as local
// (the zero Links): the location-blind transfer model the catalog had
// before it learned about sites (and the PR 3 federation's free
// cross-grid staging). It is the compatibility escape hatch and the
// control arm of locality experiments.
func LocalLinks() *Links { return &Links{} }
