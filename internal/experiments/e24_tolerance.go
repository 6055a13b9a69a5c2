package experiments

import "repro/internal/faultinject"

func init() {
	register("E24",
		"Robustness — fault-tolerance campaign: E23's fault mix absorbed by the self-healing stack",
		runE24)
}

// runE24 closes the loop E23 opened: detection alone is table stakes —
// with the tolerance stack on, every detectable fault must also be
// REPAIRED. The gates are strict: zero escapes, zero unrecovered
// detections, and the watchdog-driven auto-recovery must reproduce the
// clean run's architectural fingerprint bit for bit.
func runE24() (string, error) {
	res, err := faultinject.RunCampaign(faultinject.DefaultTolerantCampaign())
	if err != nil {
		return "", err
	}
	out := res.Table()
	if err := res.Gate(); err != nil {
		return out, err
	}
	out += "\nevery injection was either actively repaired (ECC correction, transport retransmission,\n" +
		"duplicate suppression, checkpoint rollback) or provably masked; the watchdog restored a\n" +
		"killed node from a coordinated checkpoint with no caller intervention, and the recovered\n" +
		"run's architectural fingerprint equals the clean run's\n"
	return out, nil
}
