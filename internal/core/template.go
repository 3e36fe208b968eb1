package core

import (
	"fmt"
	"sync"

	"thirstyflops/internal/embodied"
	"thirstyflops/internal/fingerprint"
	"thirstyflops/internal/hardware"
)

// Template is a bundled system resolved once per process: its ConfigFor
// configuration, the fingerprint state after every field but Seed and
// Year, and its embodied breakdown. Two requests for the same bundled
// system differ only in Seed and Year, so a request copies the
// template's configuration, derives its key by hashing those two fields
// alone, and reads the breakdown (which depends on neither) from the
// template.
//
// A Template is shared by every caller and read-only, and so are the
// maps and slices its configuration holds: a caller that needs to edit
// one takes a fresh configuration from ConfigFor.
type Template struct {
	config    Config
	prefix    fingerprint.Prefix
	breakdown embodied.Breakdown
	bdErr     error
}

// templates maps every bundled system name to its template, built on
// first use; reads take no lock.
var templates = sync.OnceValue(buildTemplates)

// buildTemplates resolves every bundled system. A name whose
// configuration fails to assemble is left out, so TemplateFor reports
// ConfigFor's error for it.
func buildTemplates() map[string]*Template {
	systems := append(hardware.Systems(), hardware.OutlookSystems()...)
	out := make(map[string]*Template, len(systems))
	for _, s := range systems {
		cfg, err := ConfigFor(s.Name)
		if err != nil {
			continue
		}
		h := fingerprint.New()
		cfg.fingerprintStatic(h)
		t := &Template{config: cfg, prefix: h.Freeze()}
		h.Release()
		t.breakdown, t.bdErr = cfg.EmbodiedBreakdown()
		out[s.Name] = t
	}
	return out
}

// TemplateFor returns the process-wide template of a bundled system (the
// names ConfigFor accepts).
func TemplateFor(systemName string) (*Template, error) {
	if t, ok := templates()[systemName]; ok {
		return t, nil
	}
	if _, err := ConfigFor(systemName); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("core: no template for %q", systemName)
}

// Config returns the template's configuration with its default Seed and
// Year. The copy shares the template's maps and slices, which must not
// be written.
func (t *Template) Config() Config { return t.config }

// Key is the fingerprint of the template's configuration with the given
// seed and year, equal to Config.Fingerprint of that configuration: the
// saved state resumes and only the seed and year are hashed.
func (t *Template) Key(seed uint64, year int) fingerprint.Key {
	h := fingerprint.New()
	fingerprintSeedYear(h, seed, year)
	key := h.SumAfter(t.prefix)
	h.Release()
	return key
}

// Breakdown is the system's embodied breakdown
// (Config.EmbodiedBreakdown), computed once.
func (t *Template) Breakdown() (embodied.Breakdown, error) { return t.breakdown, t.bdErr }
