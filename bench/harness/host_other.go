//go:build !linux

package harness

func cpuModel() string          { return "unknown" }
func fsType(path string) string { return "unknown" }

// Peak RSS is not measured off Linux.
func resetPeakRSS()     {}
func maxRSSMB() float64 { return 0 }
