//go:build race

package passes

func init() { raceEnabled = true }
