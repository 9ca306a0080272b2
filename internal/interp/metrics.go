package interp

import "repro/internal/telemetry"

// Report records the machine's execution totals into the telemetry
// session (no-op when telemetry is disabled).
func (m *Machine) Report(tel *telemetry.Session) {
	if !tel.MetricsEnabled() {
		return
	}
	tel.AddGauge("interp/cycles", m.TotalCycles())
	tel.Count("interp/instrs_executed", m.Executed)
	tel.Count("interp/san_failures", int64(len(m.SanFailures)))
}
