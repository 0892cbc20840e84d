// Package dataset implements the XML input-data-set language of Sec. 4.1:
// a file format that records the items fed to each input (data source) of a
// workflow, so that an execution can be saved, shared, and re-run on the
// same data.
package dataset

import (
	"encoding/xml"
	"fmt"
	"sort"
)

// Item is one data value of an input set.
type Item struct {
	Value string `xml:"value,attr"`
}

// Input is the item list bound to one workflow data source.
type Input struct {
	Name  string `xml:"name,attr"`
	Items []Item `xml:"item"`
}

// Set is the document root: the complete input data set of one execution.
type Set struct {
	XMLName xml.Name `xml:"dataset"`
	Name    string   `xml:"name,attr,omitempty"`
	Inputs  []Input  `xml:"input"`
}

// Parse decodes and validates a data-set document.
func Parse(data []byte) (*Set, error) {
	var s Set
	if err := xml.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Marshal encodes the set as indented XML.
func (s *Set) Marshal() ([]byte, error) {
	out, err := xml.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return out, nil
}

// Validate checks that input names are present and unique.
func (s *Set) Validate() error {
	seen := make(map[string]bool)
	for _, in := range s.Inputs {
		if in.Name == "" {
			return fmt.Errorf("dataset %s: input with empty name", s.Name)
		}
		if seen[in.Name] {
			return fmt.Errorf("dataset %s: duplicate input %q", s.Name, in.Name)
		}
		seen[in.Name] = true
	}
	return nil
}

// Values returns the item values of the named input, or nil if absent.
func (s *Set) Values(input string) []string {
	for _, in := range s.Inputs {
		if in.Name == input {
			vals := make([]string, len(in.Items))
			for i, it := range in.Items {
				vals[i] = it.Value
			}
			return vals
		}
	}
	return nil
}

// Map returns all inputs as a name-to-values map.
func (s *Set) Map() map[string][]string {
	m := make(map[string][]string, len(s.Inputs))
	for _, in := range s.Inputs {
		m[in.Name] = s.Values(in.Name)
	}
	return m
}

// InputNames returns the input names in document order.
func (s *Set) InputNames() []string {
	names := make([]string, len(s.Inputs))
	for i, in := range s.Inputs {
		names[i] = in.Name
	}
	return names
}

// FromMap builds a Set from a name-to-values map, with inputs ordered by
// name for reproducible output.
func FromMap(name string, inputs map[string][]string) *Set {
	s := &Set{Name: name}
	keys := make([]string, 0, len(inputs))
	//moteur:orderinvariant keys are sorted immediately after collection
	for k := range inputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		in := Input{Name: k}
		for _, v := range inputs[k] {
			in.Items = append(in.Items, Item{Value: v})
		}
		s.Inputs = append(s.Inputs, in)
	}
	return s
}
