//go:build race

package sketch

func init() { raceDetector = true }
