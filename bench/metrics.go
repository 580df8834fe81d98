package main

// metricDef is one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the sweep sees and other tenants of
// the host cannot move. Wall-clock throughput and CPU time swung 4.7x
// within an hour on the reference host, so they are per-layer trend
// metrics without a bound (see README.md). A failed or mismatched cell
// is not a metric: it makes the run's "failed" count and its exit
// status.
var endToEnd = []metricDef{
	// Median time from child start to the first cell (to the
	// coordinator serving, for the fleet), over the set-up probes and the
	// repetitions.
	{"setup_s", "s", "lower", 0.25},
	// The least peak RSS of a repetition: the sweep child's, or the larger
	// worker's. Contention only inflates it.
	{"peak_rss_mb", "MiB", "lower", 0.25},
	// Go heap bytes and objects allocated per cell by every process doing
	// the work, median over the repetitions.
	{"alloc_mb_per_cell", "MiB", "lower", 0.10},
	{"mallocs_per_cell", "count", "lower", 0.10},
}

// perLayer are reported by traced runs, over their traced repetitions.
// A layer a workload bypasses reports 0 (coord.* on the sweeps).
var perLayer = []metricDef{
	{name: "harness.cells_per_s", unit: "1/s", better: "higher"},
	{name: "harness.cpu_s", unit: "s", better: "lower"},
	{name: "harness.busy_frac", unit: "1", better: "higher"},
	{name: "harness.cell_s_p50", unit: "s", better: "lower"},
	{name: "harness.cell_s_tail", unit: "s", better: "lower"},
	{name: "models.build_s", unit: "s", better: "lower"},
	{name: "models.build_frac", unit: "1", better: "lower"},
	{name: "evalx.reference_s", unit: "s", better: "lower"},
	{name: "evalx.quant_eval_s", unit: "s", better: "lower"},
	{name: "quant.calibrate_s", unit: "s", better: "lower"},
	{name: "quant.release_s", unit: "s", better: "lower"},
	{name: "resultstore.save_ms_p50", unit: "ms", better: "lower"},
	{name: "resultstore.bytes_per_cell", unit: "B", better: "lower"},
	{name: "coord.lease_ms_p50", unit: "ms", better: "lower"},
	{name: "coord.lease_ms_tail", unit: "ms", better: "lower"},
	{name: "coord.push_ms_p50", unit: "ms", better: "lower"},
	{name: "coord.push_ms_tail", unit: "ms", better: "lower"},
	{name: "coord.leases_per_cell", unit: "count", better: "lower"},
	{name: "coord.waits_per_cell", unit: "count", better: "lower"},
	{name: "coord.push_stored_frac", unit: "1", better: "higher"},
	{name: "coord.worker_busy_frac", unit: "1", better: "higher"},
	{name: "go.gc_per_cell", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms_per_cell", unit: "ms", better: "lower"},
	{name: "trace.overhead_frac", unit: "1", better: "lower"},
	{name: "trace.span_cover_frac", unit: "1", better: "higher"},
}

// rep is one repetition: a fresh child evaluating every drawn cell
// cold.
type rep struct {
	traced bool
	setup  float64 // s, child start to ReadyNs
	window float64 // s, StartNs to EndNs
	cells  int
	cpu    float64 // s, the child's and its reaped workers' CPU time
	rssMB  float64
	bytes  int64 // stored cell bytes
	report childReport
}

func (r rep) cellsPerS() float64 { return float64(r.cells) / r.window }

// pick returns f over the repetitions that are traced (or not).
func pick(reps []rep, traced bool, f func(rep) float64) []float64 {
	var out []float64
	for _, r := range reps {
		if r.traced == traced {
			out = append(out, f(r))
		}
	}
	return out
}

func (r rep) allocMBPerCell() float64 {
	return float64(r.report.Mem.AllocBytes) / (1 << 20) / float64(r.cells)
}

func (r rep) mallocsPerCell() float64 { return float64(r.report.Mem.Mallocs) / float64(r.cells) }

// endToEndMetrics reduces the plain repetitions and the set-up samples.
func endToEndMetrics(reps []rep, setups []float64) map[string]float64 {
	rss := sorted(pick(reps, false, func(r rep) float64 { return r.rssMB }))
	if len(rss) == 0 {
		return map[string]float64{}
	}
	return map[string]float64{
		"setup_s":           median(setups),
		"peak_rss_mb":       rss[0],
		"alloc_mb_per_cell": median(pick(reps, false, rep.allocMBPerCell)),
		"mallocs_per_cell":  median(pick(reps, false, rep.mallocsPerCell)),
	}
}

// layerMetrics computes the per-layer metrics over the traced
// repetitions, plus the wall-clock trend and the tracing overhead from
// the plain ones. Cell spans come from the sweep pool or, in a fleet,
// from the workers.
func layerMetrics(reps []rep) map[string]float64 {
	v := map[string]float64{}
	if rate := sorted(pick(reps, false, rep.cellsPerS)); len(rate) > 0 {
		v["harness.cells_per_s"] = rate[len(rate)-1]
		v["harness.cpu_s"] = sorted(pick(reps, false, func(r rep) float64 { return r.cpu }))[0]
	}
	var spans []span
	var window float64
	var cells int
	var bytes int64
	var mem memCounts
	var cc coordCounts
	for _, r := range reps {
		if r.traced {
			spans = append(spans, r.report.Spans...)
			window += r.window
			cells += r.cells
			bytes += r.bytes
			mem.add(r.report.Mem)
			cc.add(r.report.Coord)
		}
	}
	if cells == 0 {
		return v
	}
	n := float64(cells)
	if cellSpans := named(spans, "cell"); len(cellSpans) > 0 {
		self := selfSeconds(spans)
		d := durations(cellSpans)
		cellSum := sum(d)
		v["harness.busy_frac"] = busyFrac(cellSpans, benchWorkers, window)
		v["harness.cell_s_p50"] = median(d)
		v["harness.cell_s_tail"] = tail(d)
		v["models.build_s"] = self["models.build"] / n
		v["models.build_frac"] = self["models.build"] / cellSum
		v["evalx.reference_s"] = self["evalx.reference"] / n
		v["evalx.quant_eval_s"] = self["evalx.quant_eval"] / n
		v["quant.calibrate_s"] = self["quant.calibrate"] / n
		v["quant.release_s"] = self["quant.release"] / n
		v["trace.span_cover_frac"] = 1 - self["cell"]/cellSum
	}
	if saves := durations(named(spans, "resultstore.save")); len(saves) > 0 {
		v["resultstore.save_ms_p50"] = median(saves) * 1e3
	}
	v["resultstore.bytes_per_cell"] = float64(bytes) / n
	if leases := durations(named(spans, "coord.lease")); len(leases) > 0 {
		v["coord.lease_ms_p50"] = median(leases) * 1e3
		v["coord.lease_ms_tail"] = tail(leases) * 1e3
	}
	if pushes := durations(named(spans, "coord.push")); len(pushes) > 0 {
		v["coord.push_ms_p50"] = median(pushes) * 1e3
		v["coord.push_ms_tail"] = tail(pushes) * 1e3
		v["coord.push_stored_frac"] = float64(cc.Stored) / float64(cc.Pushes)
	}
	v["coord.leases_per_cell"] = float64(cc.Leases) / n
	v["coord.waits_per_cell"] = float64(cc.Waits) / n
	v["coord.worker_busy_frac"] = busyFrac(named(spans, "coord.cell"), benchWorkers, window)
	v["go.gc_per_cell"] = float64(mem.GCCycles) / n
	v["go.gc_pause_ms_per_cell"] = float64(mem.GCPauseNs) / 1e6 / n
	if plain := median(pick(reps, false, rep.cellsPerS)); plain > 0 {
		v["trace.overhead_frac"] = 1 - median(pick(reps, true, rep.cellsPerS))/plain
	}
	return v
}
