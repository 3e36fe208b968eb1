// Package experiments regenerates every table and figure of the paper's
// evaluation from the ThirstyFLOPS substrates. Each generator returns an
// Output holding the rendered text; the waterbench CLI prints them and the
// top-level benchmarks time them. IDs lists the experiments in
// presentation order; docs/ARCHITECTURE.md describes the model layers
// they draw on.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Output is one regenerated artifact.
type Output struct {
	ID    string // "table1", "fig7", ...
	Title string
	Text  string
}

// Generator produces one artifact.
type Generator func() (Output, error)

// registry maps experiment IDs to generators, in presentation order.
var registry = []struct {
	id  string
	gen Generator
}{
	{"table1", Table1},
	{"table2", Table2},
	{"table3", Table3},
	{"fig1", Fig1},
	{"fig3", Fig3},
	{"fig4", Fig4},
	{"fig5", Fig5},
	{"fig6", Fig6},
	{"fig7", Fig7},
	{"fig8", Fig8},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"fig12", Fig12},
	{"fig13", Fig13},
	{"fig14", Fig14},
	// Extensions beyond the paper's figures (Sec. 6 directions).
	{"water500", Water500},
	{"watercap", WaterCap},
	{"geoshift", GeoShift},
	{"sensitivity", Sensitivity},
	{"greensched", GreenSched},
	{"upgrade", Upgrade},
}

// IDs lists every experiment identifier in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.id
	}
	return out
}

// ByID regenerates one experiment.
func ByID(id string) (Output, error) {
	id = strings.ToLower(strings.TrimSpace(id))
	for _, r := range registry {
		if r.id == id {
			return r.gen()
		}
	}
	known := IDs()
	sort.Strings(known)
	return Output{}, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(known, ", "))
}

// All regenerates every experiment in order.
func All() ([]Output, error) {
	out := make([]Output, 0, len(registry))
	for _, r := range registry {
		o, err := r.gen()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", r.id, err)
		}
		out = append(out, o)
	}
	return out, nil
}
