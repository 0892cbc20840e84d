// Package bronze implements the paper's evaluation application: the
// Bronze Standard medical-image registration workflow (Sec. 4.2, Fig. 9).
//
// The application registers pairs of brain MRI images with four rigid
// registration algorithms (crestMatch, Baladin, Yasmina,
// PFMatchICP/PFRegister), after a crestLines pre-processing step, and
// statistically assesses the registration accuracy with the
// MultiTransfoTest synchronization processor. Each image pair leads to 6
// job submissions; the critical path counts nW = 5 services.
//
// The image database is synthetic: the paper's images are 256×256×60
// 16-bit MRIs of 7.8 MB from Centre Antoine Lacassagne, and only their
// size (transfer time) and the per-algorithm compute times are observable
// by the scheduler, so files are modelled as registered GFNs of the right
// size and codes as calibrated runtime distributions.
package bronze

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// ImageSizeMB is the size of one MRI volume (256×256×60 voxels, 16 bits).
const ImageSizeMB = 7.8

// Runtime means of the registration codes on a reference worker node.
// Calibrated so the unoptimized (NOP) execution of 126 image pairs lands
// near the paper's ≈37 h on the default grid model.
var runtimeMeans = map[string]time.Duration{
	"crestLines":       72 * time.Second,
	"crestMatch":       64 * time.Second,
	"Baladin":          336 * time.Second,
	"Yasmina":          240 * time.Second,
	"PFMatchICP":       208 * time.Second,
	"PFRegister":       32 * time.Second,
	"MultiTransfoTest": 96 * time.Second,
}

// runtimeJitter is the relative standard deviation of code runtimes: the
// input images are homogeneous (same dimensions), so compute times vary
// only mildly; the large variability comes from the grid, not the codes.
const runtimeJitter = 0.08

// transfoSizeMB is the size of a rigid transformation result (6
// parameters plus metadata) and of crest-line files.
const (
	transfoSizeMB = 0.05
	crestSizeMB   = 1.2
)

// Params configures a Bronze Standard build.
type Params struct {
	// Grid is the infrastructure model. Zero value: grid.DefaultConfig.
	Grid grid.Config
	// Seed drives runtime jitter and, unless the grid config sets its own,
	// the grid.
	Seed uint64
}

// DefaultParams returns the calibrated experiment setup on the
// production-grid model, grid.DefaultConfig.
func DefaultParams() Params {
	return Params{Grid: grid.DefaultConfig(), Seed: 1}
}

// App is a ready-to-run Bronze Standard instance.
type App struct {
	Eng *sim.Engine
	// Fed is the one-grid federation the services submit through.
	Fed *federation.Federation
	// Grid is the federation's only member, Fed.Grid(0).
	Grid   *grid.Grid
	WF     *workflow.Workflow
	Inputs map[string][]string
}

// Build assembles the engine, a one-grid federation with local links
// (the paper's single grid), the image database, the services and the
// workflow for nPairs image pairs.
func Build(nPairs int, p Params) (*App, error) {
	if nPairs <= 0 {
		return nil, fmt.Errorf("bronze: need at least one image pair")
	}
	if len(p.Grid.Clusters) == 0 {
		p.Grid = grid.DefaultConfig()
	}
	if p.Grid.Seed == 0 {
		// Derive the infrastructure stream from the experiment seed.
		p.Grid.Seed = p.Seed ^ 0x5eed
	}
	eng := sim.NewEngine()
	fed, err := federation.New(eng, federation.Config{
		Grids: []federation.GridSpec{{Config: p.Grid}},
		Links: grid.LocalLinks(),
	})
	if err != nil {
		return nil, fmt.Errorf("bronze: %w", err)
	}

	// The synthetic image database: nPairs (reference, floating) volumes.
	refs := make([]string, nPairs)
	flos := make([]string, nPairs)
	for i := 0; i < nPairs; i++ {
		refs[i] = fmt.Sprintf("gfn://lacassagne/ref%03d", i)
		flos[i] = fmt.Sprintf("gfn://lacassagne/flo%03d", i)
		fed.Catalog().Register(refs[i], ImageSizeMB)
		fed.Catalog().Register(flos[i], ImageSizeMB)
	}

	wf, err := buildWorkflow(fed, rng.New(p.Seed^0xb202e))
	if err != nil {
		return nil, err
	}
	return &App{
		Eng:  eng,
		Fed:  fed,
		Grid: fed.Grid(0),
		WF:   wf,
		Inputs: map[string][]string{
			"referenceImage": refs,
			"floatingImage":  flos,
			"methodToTest":   {"Baladin"},
		},
	}, nil
}

// model builds a jittered runtime model for the named code.
func model(name string, r *rng.Source) services.RuntimeModel {
	mean := runtimeMeans[name]
	src := r.Fork(hash(name))
	return func(services.Request) time.Duration {
		return time.Duration(src.LogNormalMeanSD(float64(mean), runtimeJitter*float64(mean)))
	}
}

func hash(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// buildWorkflow constructs the Fig. 9 graph, submitting through sub.
func buildWorkflow(sub services.Submitter, r *rng.Source) (*workflow.Workflow, error) {
	descs, err := parsedDescriptors()
	if err != nil {
		return nil, err
	}
	wrap := func(name string, outSizes map[string]float64) (*services.Wrapper, error) {
		return services.NewWrapper(sub, descs[name], model(name, r), outSizes)
	}

	crestLines, err := wrap("crestLines",
		map[string]float64{"crest_reference": crestSizeMB, "crest_floating": crestSizeMB})
	if err != nil {
		return nil, err
	}
	crestMatch, err := wrap("crestMatch", map[string]float64{"transfo": transfoSizeMB})
	if err != nil {
		return nil, err
	}
	baladin, err := wrap("Baladin", map[string]float64{"transfo": transfoSizeMB})
	if err != nil {
		return nil, err
	}
	yasmina, err := wrap("Yasmina", map[string]float64{"transfo": transfoSizeMB})
	if err != nil {
		return nil, err
	}
	pfMatch, err := wrap("PFMatchICP", map[string]float64{"pairings": transfoSizeMB})
	if err != nil {
		return nil, err
	}
	pfRegister, err := wrap("PFRegister", map[string]float64{"transfo": transfoSizeMB})
	if err != nil {
		return nil, err
	}
	mtt, err := wrap("MultiTransfoTest",
		map[string]float64{"accuracy_translation": 0.01, "accuracy_rotation": 0.01})
	if err != nil {
		return nil, err
	}

	w := workflow.New("bronze-standard")
	w.AddSource("referenceImage")
	w.AddSource("floatingImage")
	w.AddSource("methodToTest")

	cl := w.AddService("crestLines", crestLines,
		[]string{"floating_image", "reference_image"},
		[]string{"crest_reference", "crest_floating"})
	cl.Constants = map[string]string{"scale": "1.0"}

	w.AddService("crestMatch", crestMatch,
		[]string{"crest_reference", "crest_floating", "reference_image", "floating_image"},
		[]string{"transfo"})

	w.AddService("Baladin", baladin,
		[]string{"reference_image", "floating_image", "init_transfo"},
		[]string{"transfo"})
	w.AddService("Yasmina", yasmina,
		[]string{"reference_image", "floating_image", "init_transfo"},
		[]string{"transfo"})
	w.AddService("PFMatchICP", pfMatch,
		[]string{"reference_image", "floating_image", "init_transfo"},
		[]string{"pairings"})
	w.AddService("PFRegister", pfRegister,
		[]string{"pairings"},
		[]string{"transfo"})

	sync := w.AddService("MultiTransfoTest", mtt,
		[]string{"transfo_crestmatch", "transfo_baladin", "transfo_yasmina", "transfo_pfregister", "method"},
		[]string{"accuracy_translation", "accuracy_rotation"})
	sync.Synchronization = true

	w.AddSink("accuracy_translation")
	w.AddSink("accuracy_rotation")

	// Fig. 9 data links.
	w.Connect("referenceImage", workflow.SourcePort, "crestLines", "reference_image")
	w.Connect("floatingImage", workflow.SourcePort, "crestLines", "floating_image")

	w.Connect("crestLines", "crest_reference", "crestMatch", "crest_reference")
	w.Connect("crestLines", "crest_floating", "crestMatch", "crest_floating")
	w.Connect("referenceImage", workflow.SourcePort, "crestMatch", "reference_image")
	w.Connect("floatingImage", workflow.SourcePort, "crestMatch", "floating_image")

	for _, algo := range []string{"Baladin", "Yasmina", "PFMatchICP"} {
		w.Connect("referenceImage", workflow.SourcePort, algo, "reference_image")
		w.Connect("floatingImage", workflow.SourcePort, algo, "floating_image")
		w.Connect("crestMatch", "transfo", algo, "init_transfo")
	}
	w.Connect("PFMatchICP", "pairings", "PFRegister", "pairings")

	w.Connect("crestMatch", "transfo", "MultiTransfoTest", "transfo_crestmatch")
	w.Connect("Baladin", "transfo", "MultiTransfoTest", "transfo_baladin")
	w.Connect("Yasmina", "transfo", "MultiTransfoTest", "transfo_yasmina")
	w.Connect("PFRegister", "transfo", "MultiTransfoTest", "transfo_pfregister")
	w.Connect("methodToTest", workflow.SourcePort, "MultiTransfoTest", "method")

	w.Connect("MultiTransfoTest", "accuracy_translation", "accuracy_translation", workflow.SinkPort)
	w.Connect("MultiTransfoTest", "accuracy_rotation", "accuracy_rotation", workflow.SinkPort)
	// Not validated here: core.New validates the workflow once per
	// enactment, and TestBuildValidatesAtPaperSizes pins that it passes.
	return w, nil
}

// Run builds and executes the application under the given options,
// returning the result and the built app (for grid statistics).
func Run(nPairs int, opts core.Options, p Params) (*core.Result, *App, error) {
	app, err := Build(nPairs, p)
	if err != nil {
		return nil, nil, err
	}
	e, err := core.New(app.Eng, app.WF, opts)
	if err != nil {
		return nil, nil, err
	}
	res, err := e.Run(app.Inputs)
	if err != nil {
		return nil, nil, err
	}
	return res, app, nil
}

// TraceFingerprint hashes a run's complete execution with FNV-1a: every
// invocation's processor, index key and Ready/Started/Finished instants,
// then the outputs of both sinks in arrival order. The Table 1 golden
// determinism test pins it per configuration and size, and cmd/goldengen
// prints it.
func TraceFingerprint(res *core.Result) uint64 {
	h := fnv.New64a()
	for _, inv := range res.Trace.Invocations {
		fmt.Fprintf(h, "%s|%s|%d|%d|%d;", inv.Processor, inv.Key(),
			inv.Ready, inv.Started, inv.Finished)
	}
	for _, sink := range []string{"accuracy_translation", "accuracy_rotation"} {
		for _, v := range res.Outputs[sink] {
			fmt.Fprintf(h, "%s;", v)
		}
	}
	return h.Sum64()
}
