//go:build !race

package mobo

const raceEnabled = false
