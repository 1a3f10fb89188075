package main

import (
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// percentile interpolates linearly between the closest ranks; 0 for
// no samples.
func percentile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	pos := q / 100 * float64(len(s)-1)
	i := int(pos)
	if i+1 == len(s) {
		return s[i]
	}
	return s[i] + time.Duration((pos-float64(i))*float64(s[i+1]-s[i]))
}

// beyond counts the samples above percentile q.
func beyond(d []time.Duration, q float64) int {
	p := percentile(d, q)
	n := 0
	for _, x := range d {
		if x > p {
			n++
		}
	}
	return n
}

func sum(d []time.Duration) time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSS is the process's peak resident set (VmHWM) in bytes.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024
		}
	}
	return 0
}

// rate is a phase's successful ops per second of layer time.
func (p *phase) rate() float64 {
	return ratio(float64(len(p.lat)), sum(p.lat).Seconds())
}

// samples reports the sample counts behind the percentiles.
func (b *bench) samples(p *phase) map[string]int {
	return map[string]int{
		"ops":        p.ops,
		"latencies":  len(p.lat),
		"beyond_p90": beyond(p.lat, 90),
		"setups":     len(b.setups),
	}
}

// endToEnd is the untraced run's result: what a user of the layers
// sees.
func endToEnd(p *phase, setups []time.Duration) map[string]metric {
	return map[string]metric{
		"setup_s":     {percentile(setups, 50).Seconds(), "s"},
		"op_p50_ms":   {ms(percentile(p.lat, 50)), "ms"},
		"op_p90_ms":   {ms(percentile(p.lat, 90)), "ms"},
		"mb_per_s":    {ratio(float64(p.bytes)/1e6, sum(p.lat).Seconds()), "MB/s"},
		"peak_rss_mb": {peakRSS() / 1e6, "MB"},
	}
}

// spanStats summarizes the traced phase's layer timings that exist
// only on some workloads, with their sample counts. They go to the
// detail line rather than the metrics: a time reported on every
// workload must not read a constant zero where its layer never runs.
func spanStats(t *phase) map[string]any {
	stat := func(prefix string) map[string]any {
		d := t.tr.durations(prefix)
		return map[string]any{"p50_ms": ms(percentile(d, 50)), "p90_ms": ms(percentile(d, 90)), "samples": len(d)}
	}
	return map[string]any{
		"shard_attempt":           stat("shard."),
		"transport_sort_rtt":      stat("transport.exec"),
		"transport_scan_rtt":      stat("transport.scan_exec"),
		"transport_fleet_attempt": stat("transport.attempt"),
		"plan_choose_us":          ratio(float64(t.st.planChooseNs)/1e3, float64(t.st.planChooses)),
	}
}

// perLayer is the traced run's result. Counts and times come from the
// traced phase t; allocation figures from the untraced phase u, which
// the tape and transport wrappers do not perturb.
func perLayer(u, t *phase) map[string]metric {
	ops := float64(t.ops)
	per := func(x int64) float64 { return ratio(float64(x), ops) }
	st := &t.st
	sorts := float64(st.sorts)
	ot := t.tr.opTimes()
	return map[string]metric{
		"tape.backends_opened_per_op":  {per(t.tape.opened.Load()), "count"},
		"tape.cell_calls_per_op":       {per(t.tape.cellCalls.Load()), "count"},
		"tape.block_calls_per_op":      {per(t.tape.blockCalls.Load()), "count"},
		"tape.backend_read_mb_per_op":  {per(t.tape.readBytes.Load()) / 1e6, "MB"},
		"tape.backend_write_mb_per_op": {per(t.tape.writeBytes.Load()) / 1e6, "MB"},
		"tape.backend_busy_s":          {per(t.tape.busyNs.Load()) / 1e9, "s"},
		"tape.write_block_mb_s":        {ratio(float64(st.writeBlockBytes)/1e6, float64(st.writeBlockNs)/1e9), "MB/s"},
		"tape.read_block_mb_s":         {ratio(float64(st.readBlockBytes)/1e6, float64(st.readBlockNs)/1e9), "MB/s"},

		"algorithms.sort_scans":         {ratio(float64(st.sortScans), sorts), "count"},
		"algorithms.sort_steps":         {ratio(float64(st.sortSteps), sorts), "count"},
		"algorithms.sort_peak_mem_bits": {ratio(float64(st.sortPeakMemBits), sorts), "bits"},

		"trials.trials_per_op": {per(st.trials), "count"},
		"trials.false_accepts": {per(st.falseAccepts), "count"},

		"shard.attempts_per_op":            {per(st.shardAttempts), "count"},
		"shard.fallbacks_per_op":           {per(st.shardFallbacks), "count"},
		"shard.first_try_ratio":            {ratio(float64(st.shardTasks), float64(st.shardAttempts)), "ratio"},
		"shard.attempt_share":              {ratio(float64(ot.shard), float64(ot.work)), "ratio"},
		"shard.coordinator_self_ms_per_op": {ms(ot.coordinator) / ops, "ms"},
		"shard.critical_path_steps_per_op": {per(st.critPathSteps), "count"},
		"shard.sum_steps_per_op":           {per(st.sumSteps), "count"},
		"relalg.stages_per_op":             {per(st.stages), "count"},
		"relalg.coordinator_steps_per_op":  {per(st.coordSteps), "count"},
		"relalg.total_steps_per_op":        {per(st.totalSteps), "count"},
		"plan.choose_share":                {ratio(float64(st.planChooseNs)/chooseReps, float64(sum(t.lat))), "ratio"},
		"plan.predicted_over_measured":     {ratio(float64(st.predictedSteps), float64(st.measuredSteps)), "ratio"},
		"transport.rtt_share":              {ratio(float64(ot.transport), float64(ot.work)), "ratio"},
		"transport.connections_per_op":     {per(t.conns), "count"},
		"transport.job_mb_per_op":          {per(t.jobBytes) / 1e6, "MB"},
		"transport.reply_mb_per_op":        {per(t.repBytes) / 1e6, "MB"},
		"transport.failed_attempts_per_op": {per(st.transportFailed.Load()), "count"},
		"runtime.allocs_per_op":            {ratio(float64(u.allocs), float64(u.ops)), "count"},
		"runtime.alloc_mb_per_op":          {ratio(float64(u.allocBytes)/1e6, float64(u.ops)), "MB"},
		"runtime.gc_cycles_per_op":         {ratio(float64(u.gcs), float64(u.ops)), "count"},
		"trace.overhead_ratio":             {ratio(t.rate(), u.rate()), "ratio"},
		"error_rate":                       {ratio(float64(u.failed+t.failed), float64(u.ops+t.ops)), "ratio"},
	}
}
