package wsi

import (
	"math"
	"testing"
	"testing/quick"

	"thirstyflops/internal/units"
)

func TestSiteWSIKnown(t *testing.T) {
	for _, site := range []string{"Bologna", "Kobe", "Lemont", "Oak Ridge", "Hsinchu"} {
		w, err := SiteWSI(site)
		if err != nil {
			t.Fatalf("SiteWSI(%q): %v", site, err)
		}
		if w <= 0 || w > 1 {
			t.Errorf("%s: AWARE-global factor %v outside (0,1]", site, w)
		}
	}
	if _, err := SiteWSI("Atlantis"); err == nil {
		t.Error("unknown site should error")
	}
}

func TestLemontHighestAmongPaperSites(t *testing.T) {
	// Fig. 8(b): Chicago-area scarcity dominates the four HPC sites —
	// the input behind Polaris' adjusted-WI ranking flip.
	lem, _ := SiteWSI("Lemont")
	for _, site := range []string{"Bologna", "Kobe", "Oak Ridge"} {
		w, _ := SiteWSI(site)
		if w >= lem {
			t.Errorf("%s WSI %v >= Lemont %v", site, w, lem)
		}
	}
}

func TestProfileValidate(t *testing.T) {
	good := Profile{
		Direct: 0.5,
		Plants: []PowerPlant{
			{"A", 0.3, 0.6},
			{"B", 0.9, 0.4},
		},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
	if err := (Profile{Direct: -1}).Validate(); err == nil {
		t.Error("negative direct accepted")
	}
	bad := Profile{Direct: 0.5, Plants: []PowerPlant{{"A", 0.3, 0.4}}}
	if err := bad.Validate(); err == nil {
		t.Error("shares not summing to 1 accepted")
	}
	neg := Profile{Direct: 0.5, Plants: []PowerPlant{{"A", -0.3, 1.0}}}
	if err := neg.Validate(); err == nil {
		t.Error("negative plant WSI accepted")
	}
	negShare := Profile{Direct: 0.5, Plants: []PowerPlant{{"A", 0.3, -1}, {"B", 0.3, 2}}}
	if err := negShare.Validate(); err == nil {
		t.Error("negative share accepted")
	}
	// No plants: valid, indirect falls back to direct.
	if err := (Profile{Direct: 0.4}).Validate(); err != nil {
		t.Errorf("plantless profile rejected: %v", err)
	}
}

func TestIndirectComposition(t *testing.T) {
	p := Profile{
		Direct: 0.5,
		Plants: []PowerPlant{
			{"hydro dam", 0.2, 0.5},
			{"gas plant", 0.8, 0.5},
		},
	}
	got := p.Indirect()
	if math.Abs(float64(got)-0.5) > 1e-12 {
		t.Errorf("Indirect = %v, want 0.5", got)
	}
	// Weighted, not simple, average.
	p2 := Profile{
		Direct: 0.5,
		Plants: []PowerPlant{
			{"big", 1.0, 0.9},
			{"small", 0.0, 0.1},
		},
	}
	if math.Abs(float64(p2.Indirect())-0.9) > 1e-12 {
		t.Errorf("weighted Indirect = %v, want 0.9", p2.Indirect())
	}
	// Plantless: falls back to the direct factor.
	p3 := Profile{Direct: 0.37}
	if p3.Indirect() != 0.37 {
		t.Errorf("fallback Indirect = %v, want 0.37", p3.Indirect())
	}
	// Zero-share plants: fall back rather than divide by zero.
	p4 := Profile{Direct: 0.4, Plants: []PowerPlant{{"x", 0.9, 0}}}
	if p4.Indirect() != 0.4 {
		t.Errorf("zero-share Indirect = %v, want 0.4", p4.Indirect())
	}
}

func TestAdjustedIntensity(t *testing.T) {
	p := Profile{
		Direct: 0.5,
		Plants: []PowerPlant{{"A", 1.0, 1.0}},
	}
	// direct 2 L/kWh * 0.5 + indirect 3 L/kWh * 1.0 = 4.
	got := p.AdjustedIntensity(2, 3)
	if math.Abs(float64(got)-4) > 1e-12 {
		t.Errorf("AdjustedIntensity = %v, want 4", got)
	}
}

func TestAdjustedIntensityReducesToEq9(t *testing.T) {
	// With a single basin (direct == indirect WSI), the split adjustment
	// must collapse to the paper's simple WI*WSI (Eq. 9).
	p := Profile{Direct: 0.6}
	d, i := units.LPerKWh(2), units.LPerKWh(3)
	got := p.AdjustedIntensity(d, i)
	want := 0.6 * (2 + 3)
	if math.Abs(float64(got)-want) > 1e-12 {
		t.Errorf("collapsed adjustment = %v, want %v", got, want)
	}
}

func TestIndirectBoundedProperty(t *testing.T) {
	// The composed indirect WSI always lies within [min, max] plant WSI.
	f := func(w1, w2, w3, s1, s2, s3 float64) bool {
		ws := []float64{math.Abs(math.Mod(w1, 100)), math.Abs(math.Mod(w2, 100)), math.Abs(math.Mod(w3, 100))}
		ss := []float64{math.Abs(math.Mod(s1, 1)), math.Abs(math.Mod(s2, 1)), math.Abs(math.Mod(s3, 1))}
		tot := ss[0] + ss[1] + ss[2]
		if tot == 0 {
			return true
		}
		p := Profile{Direct: 0.5}
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range ws {
			p.Plants = append(p.Plants, PowerPlant{Name: "p", WSI: units.WSI(ws[i]), Share: ss[i] / tot})
			if ws[i] < lo {
				lo = ws[i]
			}
			if ws[i] > hi {
				hi = ws[i]
			}
		}
		ind := float64(p.Indirect())
		return ind >= lo-1e-9 && ind <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStateIndices(t *testing.T) {
	if len(stateWSITable) != 50 {
		t.Fatalf("state count = %d, want 50", len(stateWSITable))
	}
	seen := make(map[string]bool, len(stateWSITable))
	for _, s := range stateWSITable {
		if seen[s.Code] {
			t.Errorf("%s listed twice", s.Code)
		}
		seen[s.Code] = true
		if s.Index < 0.1 || s.Index > 100 {
			t.Errorf("%s: index %v outside the AWARE-US 0.1-100 scale", s.Code, s.Index)
		}
	}
	az, ok := StateIndex("AZ")
	if !ok {
		t.Fatal("AZ missing")
	}
	tn, _ := StateIndex("TN")
	if az <= tn {
		t.Error("arid Arizona must out-scarce humid Tennessee (Fig. 1b gradient)")
	}
	if _, ok := StateIndex("ZZ"); ok {
		t.Error("bogus state resolved")
	}
}

func TestCountyFields(t *testing.T) {
	il := IllinoisCounties()
	tn := TennesseeCounties()
	if len(il) != 102 {
		t.Errorf("Illinois should have 102 counties, got %d", len(il))
	}
	if len(tn) != 95 {
		t.Errorf("Tennessee should have 95 counties, got %d", len(tn))
	}
	ils := SummarizeField(il)
	tns := SummarizeField(tn)
	if ils.Min < 0.30-1e-9 || ils.Max > 0.70+1e-9 {
		t.Errorf("Illinois field [%v, %v] outside Fig. 10's 0.30-0.70", ils.Min, ils.Max)
	}
	if tns.Min < 0.20-1e-9 || tns.Max > 0.40+1e-9 {
		t.Errorf("Tennessee field [%v, %v] outside Fig. 10's 0.20-0.40", tns.Min, tns.Max)
	}
	// Significant within-state variation is the point of Fig. 10.
	if ils.Spread < 1.5 {
		t.Errorf("Illinois spread %v too small", ils.Spread)
	}
	if tns.Spread < 1.3 {
		t.Errorf("Tennessee spread %v too small", tns.Spread)
	}
}

func TestCountyFieldDeterminism(t *testing.T) {
	a := CountyField("XX", 50, 0.1, 0.9, 7)
	b := CountyField("XX", 50, 0.1, 0.9, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("county field not deterministic")
		}
	}
}

func TestCountyFieldDegenerate(t *testing.T) {
	if CountyField("XX", 0, 0, 1, 1) != nil {
		t.Error("zero counties should be nil")
	}
	if CountyField("XX", 5, 1, 1, 1) != nil {
		t.Error("empty band should be nil")
	}
	if SummarizeField(nil) != (FieldStats{}) {
		t.Error("empty field summary should be zero")
	}
}

func TestCountyFieldSingleCounty(t *testing.T) {
	cs := CountyField("YY", 1, 0.2, 0.8, 3)
	if len(cs) != 1 {
		t.Fatalf("len = %d", len(cs))
	}
	if cs[0].Index < 0.2 || cs[0].Index > 0.8 {
		t.Errorf("single county index %v out of band", cs[0].Index)
	}
}
