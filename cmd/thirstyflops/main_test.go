package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"thirstyflops"
)

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

func TestListSystems(t *testing.T) {
	out, err := runCLI(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []string{"Marconi", "Fugaku", "Polaris", "Frontier"} {
		if !strings.Contains(out, sys) {
			t.Errorf("-list missing %s", sys)
		}
	}
}

func TestAssessText(t *testing.T) {
	out, err := runCLI(t, "-system", "Frontier")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"annual IT energy", "direct water", "indirect water",
		"water intensity", "embodied footprint", "lifetime",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestAssessJSON(t *testing.T) {
	out, err := runCLI(t, "-system", "Polaris", "-json", "-years", "4")
	if err != nil {
		t.Fatal(err)
	}
	var rep thirstyflops.AssessResult
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if rep.System != "Polaris" || rep.Years != 4 || rep.Seed != 42 {
		t.Errorf("metadata wrong: %+v", rep)
	}
	if rep.DirectL <= 0 || rep.IndirectL <= 0 || rep.EmbodiedL <= 0 {
		t.Error("footprints missing")
	}
	if rep.LifetimeTotalL <= rep.EmbodiedL {
		t.Error("lifetime should exceed embodied alone")
	}
	var shares float64
	for _, v := range rep.EmbodiedShares {
		shares += v
	}
	if shares < 0.99 || shares > 1.01 {
		t.Errorf("embodied shares sum to %v", shares)
	}
	if rep.Scenarios != nil || rep.Withdrawal != nil {
		t.Error("sections present without -scenarios/-withdrawal")
	}

	out, err = runCLI(t, "-system", "Polaris", "-json", "-scenarios", "-withdrawal")
	if err != nil {
		t.Fatal(err)
	}
	rep = thirstyflops.AssessResult{}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(rep.Scenarios) == 0 {
		t.Error("-json -scenarios dropped the scenario section")
	}
	if rep.Withdrawal == nil || rep.Withdrawal.Gross <= 0 {
		t.Error("-json -withdrawal dropped the withdrawal section")
	}
}

// TestTextOutputPinned pins the SHA-256 of the text view for every
// bundled system under three flag sets and for the custom testdata
// document. The digests were recorded from the CLI's earlier stand-alone
// assessment path, before it became an Engine client.
func TestTextOutputPinned(t *testing.T) {
	const custom = "../../testdata/custom-system.json"
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-system", "Marconi"}, "e8585e65dc95dbead3cf82627680c89e7aa51576890b3895f6643d956718f6dd"},
		{[]string{"-system", "Marconi", "-scenarios", "-withdrawal"}, "bc47b72fa97876f90241af294fd9ee41ce5277a5dfbf281857a2d9702d37ab1b"},
		{[]string{"-system", "Marconi", "-years", "4", "-seed", "7"}, "99375a36ba6507f4fab71f3421bbe154830b475ff85291b5cefcae2eb7fda126"},
		{[]string{"-system", "Fugaku"}, "555fa698f792519d328644539c37d33123a7addb46c9d283d7dd2256d82266da"},
		{[]string{"-system", "Fugaku", "-scenarios", "-withdrawal"}, "3bfa5d20a5e858674f16dcb32906b6bb7adc286ce5b0bd92406c49f21b3b2665"},
		{[]string{"-system", "Fugaku", "-years", "4", "-seed", "7"}, "a86e04f2d7e638b105ec43ba6fc6b7f751c60a44fbef671b17efa8746e2def3f"},
		{[]string{"-system", "Polaris"}, "bed7cb754860ab096353cf38ffa574c20761bb742c676a355f6cff33f35f6f79"},
		{[]string{"-system", "Polaris", "-scenarios", "-withdrawal"}, "94b72f6d81e90b14c22460370cbb9b28f527d0e1681ae4cf1a0545a343f28e15"},
		{[]string{"-system", "Polaris", "-years", "4", "-seed", "7"}, "d23a09a0a80dd9d154728d7a5a34bd5aaef6bb30309bb7d727ce03efc4ca1a47"},
		{[]string{"-system", "Frontier"}, "493804a9a1cf8bd9be561cb9b31f87449415c75b2c0c627dbd36e80fcbf68f0c"},
		{[]string{"-system", "Frontier", "-scenarios", "-withdrawal"}, "3fb45777a34af093447c756e97411915183eb81ef24e47c6390c76dfdc4f1815"},
		{[]string{"-system", "Frontier", "-years", "4", "-seed", "7"}, "a35e09bade839c9c54bfd044a569e6ddf36ab868aca7e24e3bdc9be4b4c61d72"},
		{[]string{"-config", custom}, "b4f574a5c7fbba90e48de95e6d03573f569964dec6623a4fb878e0aeb94b7889"},
	}
	for _, c := range cases {
		out, err := runCLI(t, c.args...)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != c.want {
			t.Errorf("%v: text output digest %s, want %s\n%s", c.args, got, c.want, out)
		}
	}
}

// TestSeedWithConfig checks that -seed overrides a -config document's
// seed only when it is given: the testdata document's own seed is 7.
func TestSeedWithConfig(t *testing.T) {
	const custom = "../../testdata/custom-system.json"
	seedOf := func(args ...string) uint64 {
		t.Helper()
		out, err := runCLI(t, append([]string{"-config", custom, "-json"}, args...)...)
		if err != nil {
			t.Fatal(err)
		}
		var rep thirstyflops.AssessResult
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatal(err)
		}
		return rep.Seed
	}
	if got := seedOf(); got != 7 {
		t.Errorf("without -seed: seed %d, want the document's 7", got)
	}
	if got := seedOf("-seed", "9"); got != 9 {
		t.Errorf("-seed 9: seed %d, want 9", got)
	}
	// The flag's default value, given explicitly, still overrides.
	if got := seedOf("-seed", "42"); got != 42 {
		t.Errorf("-seed 42: seed %d, want 42", got)
	}
	plain, err := runCLI(t, "-config", custom)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := runCLI(t, "-config", custom, "-seed", "9")
	if err != nil {
		t.Fatal(err)
	}
	if plain == seeded {
		t.Error("-seed 9 left the -config text output unchanged")
	}
}

func TestScenarioAndWithdrawalSections(t *testing.T) {
	out, err := runCLI(t, "-system", "Marconi", "-scenarios", "-withdrawal")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "100% Nuclear Usage") {
		t.Error("scenario section missing")
	}
	if !strings.Contains(out, "gross withdrawal") {
		t.Error("withdrawal section missing")
	}
}

func TestSeedChangesResult(t *testing.T) {
	a, err := runCLI(t, "-system", "Fugaku", "-seed", "1", "-json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCLI(t, "-system", "Fugaku", "-seed", "2", "-json")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("different seeds should produce different assessments")
	}
	c, err := runCLI(t, "-system", "Fugaku", "-seed", "1", "-json")
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Error("same seed should reproduce the assessment")
	}
}

func TestErrors(t *testing.T) {
	if _, err := runCLI(t); err == nil {
		t.Error("no arguments should error")
	}
	if _, err := runCLI(t, "-system", "HAL9000"); err == nil {
		t.Error("unknown system should error")
	} else if got, want := errorLine(err), `thirstyflops: hardware: unknown system "HAL9000"`; got != want {
		t.Errorf("error line = %q, want %q", got, want)
	}
	if _, err := runCLI(t, "-system", "Frontier", "-years", "NaN"); err == nil {
		t.Error("-years NaN should error")
	} else if got, want := errorLine(err), "thirstyflops: lifetime NaN is not a finite, non-negative number of years"; got != want {
		t.Errorf("error line = %q, want %q (one prefix)", got, want)
	}
	for _, years := range []string{"-1", "NaN", "Inf", "+Inf", "-Inf"} {
		if _, err := runCLI(t, "-system", "Frontier", "-years", years); err == nil {
			t.Errorf("-years %s should error", years)
		}
		if _, err := runCLI(t, "-system", "Frontier", "-years", years, "-json"); err == nil {
			t.Errorf("-years %s -json should error", years)
		}
	}
}

func TestConfigFileAssessment(t *testing.T) {
	out, err := runCLI(t, "-config", "../../testdata/custom-system.json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CampusCluster") {
		t.Error("custom system name missing")
	}
	if !strings.Contains(out, "Lemont") {
		t.Error("custom site missing")
	}
}

func TestConfigAndSystemExclusive(t *testing.T) {
	if _, err := runCLI(t, "-system", "Frontier", "-config", "x.json"); err == nil {
		t.Error("mutually exclusive flags accepted")
	}
	if _, err := runCLI(t, "-config", "/does/not/exist.json"); err == nil {
		t.Error("missing config file accepted")
	}
}
