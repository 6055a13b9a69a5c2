package experiments

import (
	"repro/internal/faultinject"
)

func init() {
	register("E23",
		"Robustness — deterministic fault-injection campaign: protection audit and checkpoint recovery",
		runE23)
}

// runE23 is the protection audit the paper's protection model invites:
// if every pointer is guarded and every plane is checked, a soft error
// anywhere in the system must surface as an explicit detection (parity,
// link CRC, machine check, watchdog, scrub) or be provably masked —
// never a silent divergence. The campaign is replayable: the table is a
// pure function of the seed.
func runE23() (string, error) {
	// The default audit: >10k seeded injections across ten fault classes
	// plus the checkpoint/kill/restore recovery exercise.
	res, err := faultinject.RunCampaign(faultinject.DefaultCampaign())
	if err != nil {
		return "", err
	}
	out := res.Table()
	if err := res.Gate(); err != nil {
		return out, err
	}
	out += "\nevery injection was either explicitly detected (tag/parity machine check, link CRC,\n" +
		"cycle-deadline watchdog, end-of-run scrub) or provably masked (fingerprint equal to the\n" +
		"uninjected run); a killed node was detected by the watchdog and resumed from a kernel\n" +
		"checkpoint with a bit-identical architectural fingerprint\n"
	return out, nil
}
