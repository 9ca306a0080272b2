//go:build race

package aa

func init() { raceEnabled = true }
