// Package telemetry handles the power time series that anchor the
// operational water footprint, in two forms. PowerLog is the batch form:
// hourly IT power samples per system, energy aggregation, resampling,
// and CSV/JSON export for external analysis — the paper
// consumes published log datasets (Marconi M100 exadata, ALCF public
// data, Fugaku logs, Frontier energy dataset), and the jobs package
// synthesizes equivalent series which flow through here. Stream is the
// live form: a concurrency-safe ring buffer of recently observed hours
// fed sample-by-sample (DecodeSamples parses single-object, array, and
// NDJSON ingest bodies), which materializes the same typed Series a
// PowerLog converts to — bit-identically, once fully ingested — and
// exposes a monotonic epoch for staleness-proof caching of anything
// derived from it.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"thirstyflops/internal/series"
	"thirstyflops/internal/stats"
	"thirstyflops/internal/units"
)

// PowerLog is an hourly IT power series for one system.
type PowerLog struct {
	System  string        `json:"system"`
	Year    int           `json:"year"`
	Samples []units.Watts `json:"samples_w"`
}

// Validate checks the log for physical plausibility.
func (l PowerLog) Validate() error {
	if l.System == "" {
		return fmt.Errorf("telemetry: log has no system name")
	}
	if len(l.Samples) == 0 {
		return fmt.Errorf("telemetry: %s: empty log", l.System)
	}
	for i, s := range l.Samples {
		if s < 0 {
			return fmt.Errorf("telemetry: %s: negative power at hour %d", l.System, i)
		}
	}
	return nil
}

// Energy integrates the full log into IT energy (hourly samples).
func (l PowerLog) Energy() units.KWh {
	var total units.KWh
	for _, w := range l.Samples {
		total += w.EnergyOver(1)
	}
	return total
}

// HourlyEnergy converts each power sample into that hour's energy.
func (l PowerLog) HourlyEnergy() []units.KWh {
	out := make([]units.KWh, len(l.Samples))
	for i, w := range l.Samples {
		out[i] = w.EnergyOver(1)
	}
	return out
}

// MonthlyEnergy aggregates a year-long log into 12 monthly energies.
func (l PowerLog) MonthlyEnergy() []units.KWh {
	hourly := make([]float64, len(l.Samples))
	for i, w := range l.Samples {
		hourly[i] = float64(w.EnergyOver(1))
	}
	monthsMeans := stats.MonthlyMeans(hourly)
	monthHours := []float64{744, 672, 744, 720, 744, 720, 744, 744, 720, 744, 720, 744}
	out := make([]units.KWh, 12)
	for m := range out {
		out[m] = units.KWh(monthsMeans[m] * monthHours[m])
	}
	return out
}

// Series combines the measured power log with modeled intensity channels
// into an aligned hourly timeline: the typed value that crosses package
// boundaries instead of loose parallel slices. The intensity channels
// must cover every logged hour.
func (l PowerLog) Series(pue units.PUE, wue, ewf []units.LPerKWh,
	carbon []units.GCO2PerKWh) (series.Series, error) {
	if err := l.Validate(); err != nil {
		return series.Series{}, err
	}
	s, err := series.From(pue, l.HourlyEnergy(), wue, ewf, carbon)
	if err != nil {
		return series.Series{}, fmt.Errorf("telemetry: %s: %w", l.System, err)
	}
	return s, nil
}

// MeanPower is the average IT draw over the log.
func (l PowerLog) MeanPower() units.Watts {
	if len(l.Samples) == 0 {
		return 0
	}
	var total float64
	for _, w := range l.Samples {
		total += float64(w)
	}
	return units.Watts(total / float64(len(l.Samples)))
}

// Resample downsamples the log by averaging consecutive windows of the
// given size; a trailing partial window is averaged over its actual
// length. Factor <= 1 returns a copy.
func (l PowerLog) Resample(factor int) PowerLog {
	if factor <= 1 {
		return PowerLog{System: l.System, Year: l.Year, Samples: append([]units.Watts(nil), l.Samples...)}
	}
	out := PowerLog{System: l.System, Year: l.Year}
	for i := 0; i < len(l.Samples); i += factor {
		end := i + factor
		if end > len(l.Samples) {
			end = len(l.Samples)
		}
		var sum float64
		for _, w := range l.Samples[i:end] {
			sum += float64(w)
		}
		out.Samples = append(out.Samples, units.Watts(sum/float64(end-i)))
	}
	return out
}

// --- CSV export ---

// WriteCSV emits the log as "hour,power_w" rows with a header comment
// carrying the metadata.
func (l PowerLog) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# system=%s year=%d\n", l.System, l.Year); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(bw, "hour,power_w"); err != nil {
		return err
	}
	for i, s := range l.Samples {
		if _, err := fmt.Fprintf(bw, "%d,%.3f\n", i, float64(s)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// --- JSON export ---

// WriteJSON emits the log as JSON.
func (l PowerLog) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(l)
}
