package experiments

import (
	"sync"

	"repro/internal/faultinject"
)

func init() {
	register("E23",
		"Robustness — deterministic fault-injection campaign: protection audit and checkpoint recovery",
		runE23)
}

// e23Once holds the default audit: >10k seeded injections across ten
// fault classes plus the checkpoint/kill/restore recovery exercise. The
// test suite renders E23 twice and reads the result, so the campaign
// runs once per process.
var e23Once struct {
	sync.Once
	res *faultinject.Result
	err error
}

func e23Result() (*faultinject.Result, error) {
	e23Once.Do(func() {
		e23Once.res, e23Once.err = faultinject.RunCampaign(faultinject.DefaultCampaign())
	})
	return e23Once.res, e23Once.err
}

// runE23 is the protection audit the paper's protection model invites:
// if every pointer is guarded and every plane is checked, a soft error
// anywhere in the system must surface as an explicit detection (parity,
// link CRC, machine check, watchdog, scrub) or be provably masked —
// never a silent divergence. The campaign is replayable: the table is a
// pure function of the seed.
func runE23() (string, error) {
	res, err := e23Result()
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
