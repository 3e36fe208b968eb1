package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"

	"thirstyflops/internal/series"
	"thirstyflops/internal/stats"
	"thirstyflops/internal/units"
)

func mustStream(t *testing.T, system string, year, window int) *Stream {
	t.Helper()
	s, err := NewStream(system, year, window)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStreamIngestAndWindow(t *testing.T) {
	s := mustStream(t, "TestSys", 2023, 24)
	for h := 0; h < 6; h++ {
		if err := s.Ingest(Sample{Hour: h, Power: units.Watts(1000 * (h + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	w := s.Window()
	if w.Lo != 0 || w.Hi != 6 || w.HoursObserved != 6 {
		t.Fatalf("window = [%d, %d) observed %d, want [0, 6) observed 6", w.Lo, w.Hi, w.HoursObserved)
	}
	if w.Epoch != 6 || w.Samples != 6 {
		t.Errorf("epoch = %d samples = %d, want 6/6", w.Epoch, w.Samples)
	}
	for h := 0; h < 6; h++ {
		want := units.Watts(1000 * (h + 1)).EnergyOver(1)
		if !w.Observed[h] || w.Energy[h] != want {
			t.Errorf("hour %d: energy = %v observed = %v, want %v/true", h, w.Energy[h], w.Observed[h], want)
		}
	}
}

func TestStreamOutOfOrderAndDuplicates(t *testing.T) {
	s := mustStream(t, "", 0, 48)
	// Out of order: 5, 3, 4 must all land.
	for _, h := range []int{5, 3, 4} {
		if err := s.Ingest(Sample{Hour: h, Power: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicates for hour 4 average: (1000 + 3000) / 2 = 2000 W.
	if err := s.Ingest(Sample{Hour: 4, Power: 3000}); err != nil {
		t.Fatal(err)
	}
	w := s.Window()
	if w.Lo != 0 || w.Hi != 6 {
		t.Fatalf("window = [%d, %d), want [0, 6)", w.Lo, w.Hi)
	}
	if w.Observed[0] || w.Observed[1] || w.Observed[2] {
		t.Error("unsampled hours reported as observed")
	}
	if got, want := w.Energy[4], units.Watts(2000).EnergyOver(1); got != want {
		t.Errorf("duplicate-hour average = %v, want %v", got, want)
	}
	if got, want := w.Energy[3], units.Watts(1000).EnergyOver(1); got != want {
		t.Errorf("out-of-order hour 3 = %v, want %v", got, want)
	}
}

func TestStreamRingWraparound(t *testing.T) {
	const window = 24
	s := mustStream(t, "", 0, window)
	for h := 0; h < 2*window; h++ {
		if err := s.Ingest(Sample{Hour: h, Power: units.Watts(100 * h)}); err != nil {
			t.Fatal(err)
		}
	}
	w := s.Window()
	if w.Lo != window || w.Hi != 2*window {
		t.Fatalf("after wraparound window = [%d, %d), want [%d, %d)", w.Lo, w.Hi, window, 2*window)
	}
	if w.HoursObserved != window {
		t.Errorf("observed = %d, want %d", w.HoursObserved, window)
	}
	for i := 0; i < window; i++ {
		h := window + i
		if want := units.Watts(100 * h).EnergyOver(1); w.Energy[i] != want {
			t.Errorf("hour %d: energy = %v, want %v", h, w.Energy[i], want)
		}
	}

	// An hour that fell off the ring is rejected and counted.
	if err := s.Ingest(Sample{Hour: window - 1, Power: 1}); err == nil {
		t.Error("sample behind the window accepted")
	}
	if st := s.Status(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}

	// A sparse jump far ahead expires everything between: only the new
	// hour is observed.
	if err := s.Ingest(Sample{Hour: 10 * window, Power: 500}); err != nil {
		t.Fatal(err)
	}
	w = s.Window()
	if w.Lo != 9*window+1 || w.Hi != 10*window+1 || w.HoursObserved != 1 {
		t.Errorf("after jump window = [%d, %d) observed %d, want [%d, %d) observed 1",
			w.Lo, w.Hi, w.HoursObserved, 9*window+1, 10*window+1)
	}
}

func TestStreamRejectsBadSamples(t *testing.T) {
	s := mustStream(t, "TestSys", 2023, 24)
	for _, tc := range []Sample{
		{Hour: 0, Power: units.Watts(math.NaN())},
		{Hour: 1, Power: units.Watts(math.Inf(1))},
		{Hour: 2, Power: -5},
		{Hour: -1, Power: 100},
		{Hour: stats.HoursPerYear, Power: 100},
		{System: "OtherSys", Hour: 3, Power: 100},
	} {
		if err := s.Ingest(tc); err == nil {
			t.Errorf("sample %+v accepted", tc)
		}
	}
	if got := s.Epoch(); got != 0 {
		t.Errorf("rejected samples advanced the epoch to %d", got)
	}
	if st := s.Status(); st.Rejected != 6 || st.Accepted != 0 {
		t.Errorf("status counters wrong: %+v", st)
	}
}

func TestStreamEpochAdvancesPerAcceptedSample(t *testing.T) {
	s := mustStream(t, "", 0, 24)
	if s.Epoch() != 0 {
		t.Fatal("fresh stream epoch != 0")
	}
	s.Ingest(Sample{Hour: 0, Power: 1})
	s.Ingest(Sample{Hour: 0, Power: -1}) // rejected
	s.Ingest(Sample{Hour: 1, Power: 1})
	if got := s.Epoch(); got != 2 {
		t.Errorf("epoch = %d, want 2", got)
	}
}

func TestStreamStatusLag(t *testing.T) {
	s := mustStream(t, "FeedSys", 2023, 48)
	for _, h := range []int{0, 1, 5} {
		if err := s.Ingest(Sample{Hour: h, Power: 100}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Status()
	if st.System != "FeedSys" || st.WindowHours != 48 {
		t.Errorf("identity wrong: %+v", st)
	}
	if st.Lo != 0 || st.Hi != 6 || st.LatestHour != 5 {
		t.Errorf("coverage wrong: %+v", st)
	}
	if st.HoursObserved != 3 || st.LagHours != 3 {
		t.Errorf("lag wrong: observed %d lag %d, want 3/3", st.HoursObserved, st.LagHours)
	}
}

// TestStreamConcurrentIngestAndSnapshot races parallel feeds against
// window snapshots and ingestion status reads; run under -race it proves
// the locking, and the final window must account for every accepted
// sample exactly once.
func TestStreamConcurrentIngestAndSnapshot(t *testing.T) {
	const (
		feeders  = 8
		perFeed  = 500
		window   = 64
		snappers = 4
	)
	s := mustStream(t, "", 0, window)
	var feed, snap sync.WaitGroup
	for f := 0; f < feeders; f++ {
		feed.Add(1)
		go func(f int) {
			defer feed.Done()
			for i := 0; i < perFeed; i++ {
				// All feeders write the same hour set so the window never
				// slides: every sample stays acceptable and averaging is
				// exercised under contention.
				h := i % window
				if err := s.Ingest(Sample{Hour: h, Power: units.Watts(1000 + f)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(f)
	}
	done := make(chan struct{})
	for r := 0; r < snappers; r++ {
		snap.Add(1)
		go func() {
			defer snap.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				w := s.Window()
				for i, ok := range w.Observed {
					if ok && (math.IsNaN(float64(w.Energy[i])) || w.Energy[i] < 0) {
						t.Errorf("snapshot hour %d: bad energy %v", w.Lo+i, w.Energy[i])
						return
					}
				}
				_ = s.Status()
			}
		}()
	}
	feed.Wait()
	close(done)
	snap.Wait()

	st := s.Status()
	if st.Accepted != feeders*perFeed {
		t.Fatalf("accepted = %d, want %d", st.Accepted, feeders*perFeed)
	}
	if st.Epoch != feeders*perFeed {
		t.Fatalf("epoch = %d, want %d", st.Epoch, feeders*perFeed)
	}
	// Every hour holds the mean of feeders' powers repeated perFeed/window
	// times: the mean of {1000..1000+feeders-1} each appearing equally.
	var wantSum float64
	for f := 0; f < feeders; f++ {
		wantSum += 1000 + float64(f)
	}
	wantAvg := wantSum / feeders
	w := s.Window()
	for i, ok := range w.Observed {
		if !ok {
			t.Fatalf("hour %d unobserved", w.Lo+i)
		}
		if got := float64(w.Energy[i]); math.Abs(got-float64(units.Watts(wantAvg).EnergyOver(1))) > 1e-9 {
			t.Fatalf("hour %d: energy %v, want %v", w.Lo+i, got, units.Watts(wantAvg).EnergyOver(1))
		}
	}
}

// TestStreamSeriesMatchesPowerLogSeries is the equivalence guarantee: a
// fully-ingested year through the ring buffer materializes a Series
// bit-identical to the batch PowerLog.Series conversion of the same
// samples.
func TestStreamSeriesMatchesPowerLogSeries(t *testing.T) {
	n := stats.HoursPerYear
	log := PowerLog{System: "EquivSys", Year: 2023, Samples: make([]units.Watts, n)}
	wue := make([]units.LPerKWh, n)
	ewf := make([]units.LPerKWh, n)
	carbon := make([]units.GCO2PerKWh, n)
	for h := 0; h < n; h++ {
		// Irregular, non-round values so bit-identity is meaningful.
		log.Samples[h] = units.Watts(1e6 + 1234.5678*float64(h%97) + 0.1*float64(h))
		wue[h] = units.LPerKWh(1.1 + 0.01*float64(h%13))
		ewf[h] = units.LPerKWh(2.3 + 0.02*float64(h%7))
		carbon[h] = units.GCO2PerKWh(400 + float64(h%29))
	}
	want, err := log.Series(1.3, wue, ewf, carbon)
	if err != nil {
		t.Fatal(err)
	}

	s := mustStream(t, "EquivSys", 2023, n)
	// Ingest out of order (two interleaved halves) to prove ordering
	// does not affect the materialized series.
	for h := 1; h < n; h += 2 {
		if err := s.Ingest(Sample{Hour: h, Power: log.Samples[h]}); err != nil {
			t.Fatal(err)
		}
	}
	for h := 0; h < n; h += 2 {
		if err := s.Ingest(Sample{Hour: h, Power: log.Samples[h]}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Series(1.3, wue, ewf, carbon)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("stream-materialized series differs from PowerLog.Series on identical samples")
	}
}

// TestSpliceIntoSharesIntensities pins the splice contract: observed
// hours replace the base energy, every other hour keeps it, the energy
// channel is a private copy, the intensity channels alias the base, and
// the base is left untouched.
func TestSpliceIntoSharesIntensities(t *testing.T) {
	const n = 48
	base, err := series.New(1.2, n)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < n; h++ {
		base.Energy[h] = units.KWh(100 + h)
		base.WUE[h] = units.LPerKWh(0.5 + 0.01*float64(h))
		base.EWF[h] = units.LPerKWh(2 + 0.02*float64(h))
		base.Carbon[h] = units.GCO2PerKWh(300 + float64(h))
	}
	want := base.Clone()

	s := mustStream(t, "", 0, 8)
	for _, h := range []int{10, 12, 13} {
		if err := s.Ingest(Sample{Hour: h, Power: 7e3}); err != nil {
			t.Fatal(err)
		}
	}
	w := s.Window()
	got := w.SpliceInto(base)

	if !base.Equal(want) {
		t.Fatal("SpliceInto modified its base")
	}
	if &got.Energy[0] == &base.Energy[0] {
		t.Fatal("spliced energy channel aliases the base")
	}
	if &got.WUE[0] != &base.WUE[0] || &got.EWF[0] != &base.EWF[0] || &got.Carbon[0] != &base.Carbon[0] {
		t.Fatal("spliced intensity channels were copied, not shared")
	}
	for h := 0; h < n; h++ {
		e := base.Energy[h]
		if h == 10 || h == 12 || h == 13 {
			e = units.Watts(7e3).EnergyOver(1)
		}
		if got.Energy[h] != e {
			t.Errorf("hour %d: spliced energy %v, want %v", h, got.Energy[h], e)
		}
	}
}

func TestStreamSeriesErrors(t *testing.T) {
	s := mustStream(t, "X", 0, 24)
	if _, err := s.Series(1.2, nil, nil, nil); err == nil {
		t.Error("empty stream materialized")
	}
	s.Ingest(Sample{Hour: 0, Power: 1})
	s.Ingest(Sample{Hour: 2, Power: 1})
	ch := make([]units.LPerKWh, 3)
	cb := make([]units.GCO2PerKWh, 3)
	if _, err := s.Series(1.2, ch, ch, cb); err == nil || !strings.Contains(err.Error(), "hour 1") {
		t.Errorf("gap not reported: %v", err)
	}
	s.Ingest(Sample{Hour: 1, Power: 1})
	if _, err := s.Series(1.2, ch, ch, cb); err != nil {
		t.Errorf("contiguous window failed: %v", err)
	}
	// Once hour 0 falls off the ring the full-series view must refuse.
	for h := 3; h <= 24; h++ {
		s.Ingest(Sample{Hour: h, Power: 1})
	}
	if _, err := s.Series(1.2, ch, ch, cb); err == nil || !strings.Contains(err.Error(), "hour 0") {
		t.Errorf("lost-origin window materialized: %v", err)
	}
}

func TestNewStreamValidation(t *testing.T) {
	if _, err := NewStream("x", 2023, 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewStream("x", 2023, -5); err == nil {
		t.Error("negative window accepted")
	}
	s, err := NewStream("x", 2023, 10*stats.HoursPerYear)
	if err != nil {
		t.Fatal(err)
	}
	if s.WindowHours() != stats.HoursPerYear {
		t.Errorf("window not clamped to year: %d", s.WindowHours())
	}
}

func TestStreamInstanceIdentity(t *testing.T) {
	a := mustStream(t, "A", 2023, 24)
	b := mustStream(t, "B", 2023, 24)
	// A same-label instance (a registry replacement) restarts at epoch
	// 0, so its snapshots must carry a newer instance than its
	// predecessor's for a cache to tell them apart.
	e := mustStream(t, "A", 2023, 24)
	wa, wb, we := a.Window(), b.Window(), e.Window()
	if !(wa.Instance < wb.Instance && wb.Instance < we.Instance) {
		t.Errorf("instances %d, %d, %d do not grow with creation order", wa.Instance, wb.Instance, we.Instance)
	}
	if wa.Epoch != we.Epoch {
		t.Errorf("fresh streams at epochs %d and %d, want both 0", wa.Epoch, we.Epoch)
	}
}
