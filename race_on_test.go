//go:build race

package strip

const raceEnabled = true
