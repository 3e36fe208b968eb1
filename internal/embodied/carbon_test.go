package embodied

import (
	"testing"

	"thirstyflops/internal/hardware"
)

func TestTakeaway1Inversion(t *testing.T) {
	// Water: HDDs cost more per GB than SSDs. Carbon: the ranking flips.
	if StorageTradeoff() <= 1 {
		t.Errorf("water HDD/SSD ratio = %v, want > 1", StorageTradeoff())
	}
	if StorageCarbonTradeoff() >= 1 {
		t.Errorf("carbon HDD/SSD ratio = %v, want < 1", StorageCarbonTradeoff())
	}
	if !StorageMetricsInverted() {
		t.Error("Takeaway 1 inversion must hold with the bundled factors")
	}
}

func TestStorageCarbonPerGB(t *testing.T) {
	if CPCSSD <= CPCHDD {
		t.Error("SSD must carry more embodied carbon per GB than HDD")
	}
}

func TestInversionAtSystemScale(t *testing.T) {
	// A Frontier-scale decision: replacing the 679 PB HDD farm with flash
	// would cut embodied water but multiply embodied carbon — a designer
	// cannot optimize both with one technology choice.
	capacity := 679e6 // GB
	waterHDD := float64(StorageWater(hardware.HDD, 679e6))
	waterSSD := float64(StorageWater(hardware.SSD, 679e6))
	carbonHDD := CPCHDD * capacity
	carbonSSD := CPCSSD * capacity
	if waterSSD >= waterHDD {
		t.Error("flash should cut embodied water")
	}
	if carbonSSD <= carbonHDD {
		t.Error("flash should raise embodied carbon")
	}
}
