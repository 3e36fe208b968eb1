package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenText pins every rendered artifact byte for byte: the SHA-256 of
// each experiment's Output.Text, keyed by ID. The digests were recorded
// before the generators' seasonal cosines were tabulated, so a generator
// or core refactor that moves any printed number in any table or figure
// fails here, not only one that drops a checked substring.
var goldenText = map[string]string{
	"table1":      "81133830d7c696f92d16a5afd71d3dc3058edea2329a65989b840a755535926a",
	"table2":      "2dc038ad57ed5f680273b0a73c3c13e949e5c3091c09d37ee377b6428438de9f",
	"table3":      "b4c1a6f14a734a5c99fdce09ef80969e320e3cc6cbc9a4153efa1c8768173ea4",
	"fig1":        "fe365654b3ff049106452a45176dc698a79efd179a46bf4a67d4216fa15195e4",
	"fig3":        "01915585804a820256d690307569710cce757c209e64e00aa5548714d91dea66",
	"fig4":        "fd3784993df79a2f64045d0df130d3091b09580f488c15316986bf16999434ee",
	"fig5":        "93f4b3fa0d5b37d601e1a7fcc8f76eca030e93454a1c13a7f9564f5a51c9ef51",
	"fig6":        "d0d7656d3136ea79e2b0b3a2249fae2d1cb704f60fbc2ca57838c3cc43791b00",
	"fig7":        "efb7b9dc97f87cd004f65b001ce038c093bc2052dbd7e20a18c77f897c1b873e",
	"fig8":        "72164965250ba4e965c6657894bd7cabc1220ef9777a309104383b0f68bb7de1",
	"fig9":        "a48c828a782a5ba72360c7488cda9a54f64e674eb2b0799a0706f99e915fde7e",
	"fig10":       "a39698b4ff8b843b7c9e6e370900dedb96cd342ef886f1c3d99b315d09ad8560",
	"fig11":       "00278f6b132fb8d44c83b7c28dd732ab16d6a63e03f6746b12469683eb6273df",
	"fig12":       "fe1e07df803a5f753f44bdaccf6ac632b539393561516fa824dd013e4980fc19",
	"fig13":       "681fdff58cc1596507e0bc13e6ae065e09b89f04cf4fbdc9db6dfaa3beeb7c87",
	"fig14":       "4da6d2407a70a134612a0b40d69ca3e93d41b43a483d7875af5f28f269009ee7",
	"water500":    "4568d593310094e4ace96131a3612cedd246c15b77145398b15c4c5d2b993a6e",
	"watercap":    "14ae495580654725c9c264cae61e40c8a5604619dc1b04da5730217bbcb02626",
	"geoshift":    "605835271850e86fa0f6ed8d5ad3b8d4df4bbaefb6c418d1016e66b2d121a8f5",
	"sensitivity": "99623f690417e2f4e6d7852bb5e43b967d6ea7e9e1e87d4b9b12de8496d551fa",
	"greensched":  "67e5cf649415077117b4badb5ac268bca9eb146fa30bdec95201c41d4d0603aa",
	"upgrade":     "5a6d634cb0d053f521e9e86065c02cffe7fc0e76142a0b4716e040fe5fd006e3",
}

func TestGoldenRenderedArtifacts(t *testing.T) {
	outs, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(goldenText) {
		t.Errorf("%d experiments, %d golden digests", len(outs), len(goldenText))
	}
	for _, o := range outs {
		sum := sha256.Sum256([]byte(o.Text))
		got := hex.EncodeToString(sum[:])
		want, ok := goldenText[o.ID]
		if !ok {
			t.Errorf("%s: no golden digest (got %s)", o.ID, got)
			continue
		}
		if got != want {
			t.Errorf("%s: rendered text digest %s, want %s", o.ID, got, want)
		}
	}
}
