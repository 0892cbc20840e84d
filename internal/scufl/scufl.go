// Package scufl implements a Scufl-dialect workflow description language.
//
// The paper's enactor adopts the Simple Concept Unified Flow Language
// (Scufl) of the Taverna workbench (Sec. 4.1): processors with input and
// output ports, data links, data sources and sinks, iteration strategies,
// and coordination constraints — control links that enforce an execution
// order and that the paper uses to mark services requiring data
// synchronization.
//
// This dialect keeps those concepts in a compact XML form:
//
//	<scufl name="bronze-standard">
//	  <source name="referenceImage"/>
//	  <sink name="accuracy_translation"/>
//	  <processor name="crestLines" strategy="dot(floating_image,reference_image)">
//	    <inport name="floating_image"/>
//	    <inport name="reference_image"/>
//	    <outport name="crest_reference"/>
//	    <constant name="scale" value="1.0"/>
//	    <!-- either bind a registered service by name, or embed the
//	         executable descriptor for the generic wrapper: -->
//	    <wrapper runtime="90s" jitter="0.08">
//	      <outsize name="crest_reference" mb="1.2"/>
//	      <description>…Fig. 8 executable descriptor…</description>
//	    </wrapper>
//	  </processor>
//	  <link from="referenceImage:out" to="crestLines:reference_image"/>
//	  <coordination before="crestLines" after="somethingElse"/>
//	</scufl>
//
// A processor with synchronization="true" is a synchronization barrier
// (Sec. 2.3). Processors without an embedded wrapper are bound through the
// Registry by their service attribute (defaulting to the processor name).
package scufl

import (
	"encoding/xml"
	"fmt"
	"strings"
	"time"

	"repro/internal/descriptor"
	"repro/internal/grid"
	"repro/internal/iterstrat"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/workflow"
)

// Registry binds processor service names to service implementations.
type Registry map[string]services.Service

// Options configures parsing.
type Options struct {
	// Registry resolves service references for processors without an
	// embedded wrapper.
	Registry Registry
	// Grid is required when the document embeds wrapper descriptors.
	Grid *grid.Grid
	// Seed drives the runtime jitter of embedded wrappers.
	Seed uint64
}

type portXML struct {
	Name string `xml:"name,attr"`
}

type constantXML struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
}

type outsizeXML struct {
	Name string  `xml:"name,attr"`
	MB   float64 `xml:"mb,attr"`
}

type wrapperXML struct {
	Runtime     string                 `xml:"runtime,attr"`
	Jitter      float64                `xml:"jitter,attr"`
	OutSizes    []outsizeXML           `xml:"outsize"`
	Description descriptor.Description `xml:"description"`
}

type processorXML struct {
	Name            string        `xml:"name,attr"`
	Service         string        `xml:"service,attr"`
	Strategy        string        `xml:"strategy,attr"`
	Synchronization bool          `xml:"synchronization,attr"`
	InPorts         []portXML     `xml:"inport"`
	OutPorts        []portXML     `xml:"outport"`
	Constants       []constantXML `xml:"constant"`
	Wrapper         *wrapperXML   `xml:"wrapper"`
}

type linkXML struct {
	From string `xml:"from,attr"`
	To   string `xml:"to,attr"`
}

type coordinationXML struct {
	Before string `xml:"before,attr"`
	After  string `xml:"after,attr"`
}

type scuflXML struct {
	XMLName       xml.Name          `xml:"scufl"`
	Name          string            `xml:"name,attr"`
	Sources       []portXML         `xml:"source"`
	Sinks         []portXML         `xml:"sink"`
	Processors    []processorXML    `xml:"processor"`
	Links         []linkXML         `xml:"link"`
	Coordinations []coordinationXML `xml:"coordination"`
}

// Parse decodes a Scufl document into a validated workflow.
func Parse(data []byte, opts Options) (*workflow.Workflow, error) {
	var doc scuflXML
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("scufl: %w", err)
	}
	w := workflow.New(doc.Name)
	for _, s := range doc.Sources {
		if err := checkName(w, s.Name); err != nil {
			return nil, err
		}
		w.AddSource(s.Name)
	}
	for _, s := range doc.Sinks {
		if err := checkName(w, s.Name); err != nil {
			return nil, err
		}
		w.AddSink(s.Name)
	}
	jitterSeed := opts.Seed
	for _, p := range doc.Processors {
		if err := checkName(w, p.Name); err != nil {
			return nil, err
		}
		proc := &workflow.Processor{
			Name:            p.Name,
			Kind:            workflow.KindService,
			Synchronization: p.Synchronization,
		}
		for _, ip := range p.InPorts {
			proc.InPorts = append(proc.InPorts, ip.Name)
		}
		for _, op := range p.OutPorts {
			proc.OutPorts = append(proc.OutPorts, op.Name)
		}
		if len(p.Constants) > 0 {
			proc.Constants = make(map[string]string, len(p.Constants))
			for _, c := range p.Constants {
				proc.Constants[c.Name] = c.Value
			}
		}
		if p.Strategy != "" {
			strat, err := iterstrat.Parse(p.Strategy)
			if err != nil {
				return nil, fmt.Errorf("scufl: processor %s: %w", p.Name, err)
			}
			proc.Strategy = strat
		}
		svc, err := bindService(p, opts, jitterSeed)
		if err != nil {
			return nil, err
		}
		jitterSeed++
		proc.Service = svc
		w.Add(proc)
	}
	for _, l := range doc.Links {
		fp, fport, err := splitRef(l.From)
		if err != nil {
			return nil, fmt.Errorf("scufl: link from: %w", err)
		}
		tp, tport, err := splitRef(l.To)
		if err != nil {
			return nil, fmt.Errorf("scufl: link to: %w", err)
		}
		w.Connect(fp, fport, tp, tport)
	}
	for _, c := range doc.Coordinations {
		w.Constrain(c.Before, c.After)
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// checkName rejects a processor name that workflow.Add would panic on: an
// empty name, or one already taken. Sources, sinks and processors share
// one namespace.
func checkName(w *workflow.Workflow, name string) error {
	if name == "" {
		return fmt.Errorf("scufl: workflow %s: processor with empty name", w.Name)
	}
	if _, dup := w.Proc(name); dup {
		return fmt.Errorf("scufl: workflow %s: duplicate processor %s", w.Name, name)
	}
	return nil
}

// bindService resolves the processor's service: an embedded wrapper when
// present, otherwise a registry entry.
func bindService(p processorXML, opts Options, seed uint64) (services.Service, error) {
	if p.Wrapper != nil {
		if opts.Grid == nil {
			return nil, fmt.Errorf("scufl: processor %s embeds a wrapper but no grid was provided", p.Name)
		}
		mean, err := time.ParseDuration(p.Wrapper.Runtime)
		if err != nil {
			return nil, fmt.Errorf("scufl: processor %s: bad runtime: %w", p.Name, err)
		}
		sizes := make(map[string]float64, len(p.Wrapper.OutSizes))
		for _, o := range p.Wrapper.OutSizes {
			sizes[o.Name] = o.MB
		}
		jitter := p.Wrapper.Jitter
		src := rng.New(seed ^ 0x5cf1)
		model := func(services.Request) time.Duration {
			if jitter <= 0 {
				return mean
			}
			return time.Duration(src.LogNormalMeanSD(float64(mean), jitter*float64(mean)))
		}
		desc := p.Wrapper.Description
		return services.NewWrapper(opts.Grid, &desc, model, sizes)
	}
	name := p.Service
	if name == "" {
		name = p.Name
	}
	svc, ok := opts.Registry[name]
	if !ok {
		return nil, fmt.Errorf("scufl: processor %s: no service %q in registry", p.Name, name)
	}
	return svc, nil
}

func splitRef(ref string) (proc, port string, err error) {
	i := strings.LastIndex(ref, ":")
	if i <= 0 || i == len(ref)-1 {
		return "", "", fmt.Errorf("scufl: malformed port reference %q (want proc:port)", ref)
	}
	return ref[:i], ref[i+1:], nil
}

// Write renders a workflow back to the Scufl dialect. Embedded wrapper
// definitions are not reconstructed; processors reference their service by
// name, so the document re-parses against a registry.
func Write(w *workflow.Workflow) ([]byte, error) {
	doc := scuflXML{Name: w.Name}
	for _, p := range w.Processors() {
		switch p.Kind {
		case workflow.KindSource:
			doc.Sources = append(doc.Sources, portXML{p.Name})
		case workflow.KindSink:
			doc.Sinks = append(doc.Sinks, portXML{p.Name})
		default:
			px := processorXML{
				Name:            p.Name,
				Synchronization: p.Synchronization,
			}
			if p.Service != nil && p.Service.Name() != p.Name {
				px.Service = p.Service.Name()
			}
			if p.Strategy != nil {
				px.Strategy = p.Strategy.String()
			}
			for _, ip := range p.InPorts {
				px.InPorts = append(px.InPorts, portXML{ip})
			}
			for _, op := range p.OutPorts {
				px.OutPorts = append(px.OutPorts, portXML{op})
			}
			//moteur:orderinvariant sortConstants orders the list immediately after collection
			for name, v := range p.Constants {
				px.Constants = append(px.Constants, constantXML{name, v})
			}
			sortConstants(px.Constants)
			doc.Processors = append(doc.Processors, px)
		}
	}
	for _, l := range w.Links {
		doc.Links = append(doc.Links, linkXML{
			From: l.FromProc + ":" + l.FromPort,
			To:   l.ToProc + ":" + l.ToPort,
		})
	}
	for _, c := range w.Constraints {
		doc.Coordinations = append(doc.Coordinations, coordinationXML{c.Before, c.After})
	}
	return xml.MarshalIndent(doc, "", "  ")
}

func sortConstants(cs []constantXML) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Name < cs[j-1].Name; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
