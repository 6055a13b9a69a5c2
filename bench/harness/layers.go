package harness

// cpuBuckets are the packages a traced run's CPU samples are split into:
// a sample belongs to the package of its leaf function. Every
// repro/internal package the workloads reach has a bucket; "runtime"
// takes the Go runtime, "stdlib" the rest of the standard library and
// "bench" the benchmark's own code.
var cpuBuckets = []string{
	"asm", "capverify", "kernel", "machine", "jit", "isa", "core", "vm", "cache", "mem",
	"noc", "multi", "persist", "migrate", "word", "buddy", "telemetry",
	"runtime", "stdlib", "bench",
}

// layerMetrics names the traced metrics, in report order, with units.
var layerMetrics = func() []struct{ Name, Unit string } {
	m := []struct{ Name, Unit string }{
		{"asm.assemble_us_p50", "us"},
		{"capverify.verify_us_p50", "us"},
		{"capverify.safe_site_ratio", "ratio"},
		{"kernel.boot_us_p50", "us"},
		{"kernel.capture_us_p50", "us"},
		{"machine.run_ns_per_instr", "ns/instr"},
		{"machine.idle_cluster_ratio", "ratio"},
		{"machine.domain_swaps_per_kinstr", "1/kinstr"},
		{"jit.register_us_p50", "us"},
		{"jit.compiled_per_job", "1/job"},
		{"jit.entries_per_kinstr", "1/kinstr"},
		{"jit.elided_site_ratio", "ratio"},
		{"jit.invalidated", "1/job"},
		{"isa.decode_ns", "ns"},
		{"vm.translations_per_instr", "1/instr"},
		{"vm.tlb_hit_ratio", "ratio"},
		{"vm.page_walks_per_kinstr", "1/kinstr"},
		{"vm.demand_maps_per_job", "1/job"},
		{"vm.translate_ns", "ns"},
		{"cache.accesses_per_kinstr", "1/kinstr"},
		{"cache.hit_ratio", "ratio"},
		{"cache.writebacks_per_kinstr", "1/kinstr"},
		{"cache.conflict_cycles_per_access", "cycles"},
		{"cache.mem_wait_cycles_per_access", "cycles"},
		{"cache.access_ns", "ns"},
		{"noc.messages_per_kinstr", "1/kinstr"},
		{"noc.hops_per_msg", "hops"},
		{"noc.latency_cycles_per_msg", "cycles"},
		{"noc.contention_cycles_per_msg", "cycles"},
		{"noc.retransmits", "1/job"},
		{"noc.send_ns", "ns"},
		{"multi.boot_us_p50", "us"},
		{"multi.run_ns_per_mesh_cycle", "ns/cycle"},
		{"multi.remote_ops_per_kinstr", "1/kinstr"},
		{"persist.capture_us_p50", "us"},
		{"persist.write_us_p50", "us"},
		{"persist.bytes_per_gen", "B"},
		{"persist.delta_pages_per_gen", "pages"},
		{"persist.encode_us", "us"},
		{"persist.restore_us_p50", "us"},
		{"migrate.run_us_p50", "us"},
		{"migrate.rounds_per_job", "1/job"},
		{"migrate.pages_sent_per_job", "pages"},
		{"migrate.wire_bytes_per_job", "B"},
		{"migrate.stw_cycles_p50", "cycles"},
		{"migrate.codec_ns_per_kb", "ns/KB"},
		{"runtime.gc_per_job", "1/job"},
		{"sim_instr_per_job", "instr"},
		{"sim_cycles_per_job", "cycles"},
		{"trace_overhead", "ratio"},
		{"cpu_profile_s", "s"},
		{"cpu_share_covered", "ratio"},
	}
	for _, b := range cpuBuckets {
		m = append(m, struct{ Name, Unit string }{b + ".cpu_share", "ratio"})
	}
	return m
}()

// perLayer fills the traced metrics from the traced phase b, its spans,
// the CPU-profile shares and the replay probes; the untraced phase a
// gives trace_overhead.
func (r *runner) perLayer(a, b *phase, tr *tracer, shares map[string]float64, cpuSeconds float64, storeDir string) error {
	c := b.c
	jobs := float64(c.jobs)
	kinstr := float64(c.instr) / 1e3
	p50 := func(xs []float64) float64 { return percentile(xs, 0.5) }
	v := map[string]float64{
		"asm.assemble_us_p50":       p50(tr.durations("asm.Assemble")),
		"capverify.verify_us_p50":   p50(tr.durations("capverify.Verify")),
		"capverify.safe_site_ratio": ratio(float64(r.c.safeSites), float64(r.c.sites)),
		"kernel.boot_us_p50":        p50(tr.durations("kernel.boot")),
		"kernel.capture_us_p50":     p50(tr.notes["kernel.capture_us"]),

		"machine.run_ns_per_instr":        ratio(float64(tr.selfNanos("kernel.Run")), float64(c.instr)),
		"machine.idle_cluster_ratio":      ratio(float64(c.idle), float64(c.clusterCycles)),
		"machine.domain_swaps_per_kinstr": ratio(float64(c.domainSwaps), kinstr),

		"jit.register_us_p50":    p50(tr.durations("jit.Register")),
		"jit.compiled_per_job":   ratio(float64(c.jitCompiled), jobs),
		"jit.entries_per_kinstr": ratio(float64(c.jitEntries), kinstr),
		"jit.elided_site_ratio":  ratio(float64(c.jitElided), float64(c.jitElided+c.jitRetained)),
		"jit.invalidated":        ratio(float64(c.jitInvalidated), jobs),

		"vm.translations_per_instr": ratio(float64(c.translations), float64(c.instr)),
		"vm.tlb_hit_ratio":          ratio(float64(c.tlbHits), float64(c.tlbHits+c.tlbMisses)),
		"vm.page_walks_per_kinstr":  ratio(float64(c.pageWalks), kinstr),
		"vm.demand_maps_per_job":    ratio(float64(c.demandMaps), jobs),

		"cache.accesses_per_kinstr":        ratio(float64(c.cacheAccesses), kinstr),
		"cache.hit_ratio":                  ratio(float64(c.cacheHits), float64(c.cacheAccesses)),
		"cache.writebacks_per_kinstr":      ratio(float64(c.writebacks), kinstr),
		"cache.conflict_cycles_per_access": ratio(float64(c.conflictCycles), float64(c.cacheAccesses)),
		"cache.mem_wait_cycles_per_access": ratio(float64(c.memWaitCycles), float64(c.cacheAccesses)),

		"noc.messages_per_kinstr":       ratio(float64(c.nocMessages), kinstr),
		"noc.hops_per_msg":              ratio(float64(c.nocHops), float64(c.nocMessages)),
		"noc.latency_cycles_per_msg":    ratio(float64(c.nocLatency), float64(c.nocMessages)),
		"noc.contention_cycles_per_msg": ratio(float64(c.nocContention), float64(c.nocMessages)),
		"noc.retransmits":               ratio(float64(c.nocRetransmits), jobs),

		"multi.boot_us_p50":           p50(tr.durations("multi.boot")),
		"multi.run_ns_per_mesh_cycle": ratio(float64(tr.selfNanos("multi.Run")), float64(c.meshCycles)),
		"multi.remote_ops_per_kinstr": ratio(float64(c.remoteOps), kinstr),

		"persist.capture_us_p50":      p50(tr.durations("persist.Capture")),
		"persist.write_us_p50":        p50(tr.notes["persist.write_us"]),
		"persist.bytes_per_gen":       ratio(float64(c.persistBytes), float64(c.captures)),
		"persist.delta_pages_per_gen": ratio(float64(c.deltaPages), float64(c.captures)),
		"persist.restore_us_p50":      p50(tr.durations("persist.RestoreNewest")),

		"migrate.run_us_p50":         p50(tr.durations("migrate.Run")),
		"migrate.rounds_per_job":     ratio(float64(c.migrateRounds), float64(c.migrations)),
		"migrate.pages_sent_per_job": ratio(float64(c.migratePages), float64(c.migrations)),
		"migrate.wire_bytes_per_job": ratio(float64(c.migrateWireBytes), float64(c.migrations)),
		"migrate.stw_cycles_p50":     p50(tr.notes["migrate.stw_cycles"]),
		"runtime.gc_per_job":         ratio(float64(b.gcs), jobs),
		"sim_instr_per_job":          ratio(float64(c.instr), jobs),
		"sim_cycles_per_job":         ratio(float64(c.cycles), jobs),
		"cpu_profile_s":              cpuSeconds,
		"trace_overhead":             ratio(a.ips(), b.ips()) - 1,
	}
	covered := 0.0
	for _, bk := range cpuBuckets {
		v[bk+".cpu_share"] = shares[bk]
		covered += shares[bk]
	}
	v["cpu_share_covered"] = covered
	if err := r.probe(v, storeDir); err != nil {
		return err
	}
	for _, m := range layerMetrics {
		r.res.Metrics = append(r.res.Metrics, Metric{m.Name, v[m.Name], m.Unit})
	}
	return nil
}
