package interp

import (
	"strings"

	"repro/internal/profile"
)

// EnableProfile turns on per-instruction attribution. Call before the
// first Run.
func (m *Machine) EnableProfile() { m.Profile = true }

// ProfileSamples flattens the per-instruction counters into
// source-attributed samples, in deterministic module order (function,
// block, instruction). Instructions that never retired are skipped.
func (m *Machine) ProfileSamples() []profile.Sample {
	if m.profCells == nil {
		return nil
	}
	var out []profile.Sample
	for _, fn := range m.mod.Funcs {
		for _, blk := range fn.Blocks {
			for _, in := range blk.Instrs {
				c := m.profCells[in]
				if c == nil || (c.retired == 0 && c.cycles == 0) {
					continue
				}
				s := profile.Sample{
					Fn:      fn.Name,
					Op:      strings.ToLower(in.Op.String()),
					Cycles:  float64(c.cycles) / 1000,
					Retired: c.retired,
				}
				if in.Span.IsValid() {
					s.File = in.Span.Start.File
					s.Line = in.Span.Start.Line
				}
				out = append(out, s)
			}
		}
	}
	return out
}
