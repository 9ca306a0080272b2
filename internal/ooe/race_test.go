//go:build race

package ooe

func init() { raceEnabled = true }
