package configio

import (
	"strings"
	"testing"
)

// FuzzLoad hardens the JSON config loader (Decode, then Build): arbitrary
// input must either error cleanly or produce a configuration that
// validates end to end.
func FuzzLoad(f *testing.F) {
	f.Add(validDoc)
	f.Add(`{}`)
	f.Add(`{"system":{}}`)
	f.Add(`{"system":{"name":"x","nodes":-1}}`)
	f.Add(`[1,2,3]`)
	f.Add(`{"system":{"name":"x","nodes":1,"cpu":{"dies":[{"area_mm2":-1}]}}}`)
	f.Fuzz(func(t *testing.T, data string) {
		cfg, err := load(strings.NewReader(data))
		if err != nil {
			return
		}
		if vErr := cfg.Validate(); vErr != nil {
			t.Fatalf("Decode and Build returned invalid config without error: %v", vErr)
		}
	})
}
