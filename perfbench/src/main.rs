//! `perfbench`: the DeepLens end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <ingest|paper_q|serve_rw> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run is a fixed, seeded op schedule (its length derived from
//! `--seconds`, never cut by the clock) driven through the public API from
//! this one process. Every answer is checked outside the timed region; a
//! wrong answer fails the run instead of printing numbers. The last line of
//! standard output is one JSON object: with `--trace 0` the end-to-end
//! metrics, with `--trace 1` the per-layer metrics of a traced run (spans
//! around the benchmark's calls into each layer, written to a JSON-lines
//! file at exit). See `README.md` next to this crate.

mod counters;
mod ingest;
mod paper_q;
mod report;
mod seeded;
mod serve_rw;
mod stages;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use report::{median, Canary, Metric, Outcome};

/// End-to-end metrics every untraced run prints, in order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("success_frac", "frac"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run prints, in order. Layers a workload
/// leaves idle read 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("vision.detect_ms", "ms"),
    ("vision.featurize_ms", "ms"),
    ("etl.self_ms", "ms"),
    ("codec.frames_decoded", "count"),
    ("shared.lineage_entries", "count"),
    ("catalog.index_deltas_maintained", "count"),
    ("catalog.index_delta_merges", "count"),
    ("catalog.columnar_rebuilt", "count"),
    ("query.q1_join_ms", "ms"),
    ("query.q2_scan_ms", "ms"),
    ("query.q3_backtrace_ms", "ms"),
    ("query.q4_dedup_ms", "ms"),
    ("query.q5_scan_ms", "ms"),
    ("query.q6_scan_ms", "ms"),
    ("query.write_ms", "ms"),
    ("scan.rows_materialized", "count"),
    ("scan.chunks_pruned", "count"),
    ("scan.chunks_decoded", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("serve.rtt_ms", "ms"),
    ("serve.request_encode_us", "us"),
    ("serve.response_decode_us", "us"),
    ("serve.write_rtt_ms", "ms"),
    ("serve.admitted", "count"),
    ("serve.shed", "count"),
    ("host.canary_ms", "ms"),
    ("trace.op_p50_ms", "ms"),
    ("trace.spans_per_op", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.ops", "count"),
];

/// Span name → per-layer metric and the factor from nanoseconds to its
/// unit. Each metric is the median, over the root spans ("op", else
/// "write") that contain the name, of the summed self time of those spans.
const SPAN_METRICS: [(&str, &str, f64); 14] = [
    ("vision.detect", "vision.detect_ms", 1e-6),
    ("vision.featurize", "vision.featurize_ms", 1e-6),
    ("etl.run", "etl.self_ms", 1e-6),
    ("query.q1_join", "query.q1_join_ms", 1e-6),
    ("query.q2_scan", "query.q2_scan_ms", 1e-6),
    ("query.q3_backtrace", "query.q3_backtrace_ms", 1e-6),
    ("query.q4_dedup", "query.q4_dedup_ms", 1e-6),
    ("query.q5_scan", "query.q5_scan_ms", 1e-6),
    ("query.q6_scan", "query.q6_scan_ms", 1e-6),
    ("query.write", "query.write_ms", 1e-6),
    ("serve.rtt", "serve.rtt_ms", 1e-6),
    ("serve.write_rtt", "serve.write_rtt_ms", 1e-6),
    ("serve.request_encode", "serve.request_encode_us", 1e-3),
    ("serve.response_decode", "serve.response_decode_us", 1e-3),
];

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set-ups per run, half before and half after the measured phase;
    /// `setup_s` is their median.
    pub setups: usize,
    /// Fewest samples a class needs before its p90 is reported.
    pub min_p90_samples: usize,
    /// Explicit schedule length (tests); `None` derives it from `seconds`.
    pub ops: Option<usize>,
}

impl RunConfig {
    /// The schedule length: `seconds × rate`, fixed before the run starts.
    pub fn ops(&self, per_second: f64) -> usize {
        self.ops
            .unwrap_or_else(|| (self.seconds * per_second).round() as usize)
            .max(1)
    }

    /// A session working directory under the process temp dir.
    pub fn session_dir(&self, name: &str) -> PathBuf {
        std::env::temp_dir()
            .join("deeplens-perfbench")
            .join(format!("{name}-{}", std::process::id()))
    }

    /// p90 of a class, reported only from enough samples that ten percent
    /// of them lie beyond it.
    pub fn p90(&self, samples: &[f64]) -> Result<f64, String> {
        if samples.len() < self.min_p90_samples {
            return Err(format!(
                "p90 needs at least {} samples, the schedule gave {}",
                self.min_p90_samples,
                samples.len()
            ));
        }
        Ok(report::percentile(samples, 0.9))
    }

    /// Record spans while the returned guard lives (traced runs only).
    pub fn tracing(&self) -> TraceGuard {
        trace::set_enabled(self.trace);
        TraceGuard
    }
}

pub struct TraceGuard;

impl Drop for TraceGuard {
    fn drop(&mut self) {
        trace::set_enabled(false);
    }
}

/// Time the workload's set-up `cfg.setups` times and run `measure` on one
/// of them. The first half of the set-ups run before the measured phase
/// (the state of the last of those is measured; earlier ones are dropped
/// first, so only one is alive at a time) and the rest after it, so
/// `setup_s`, their median, samples the host at both ends of the run.
pub fn with_setups<T>(
    cfg: &RunConfig,
    mut setup: impl FnMut() -> Result<T, String>,
    measure: impl FnOnce(T, &mut Outcome) -> Result<(), String>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut times = Vec::with_capacity(cfg.setups);
    let mut timed = |times: &mut Vec<f64>| -> Result<T, String> {
        let t = Instant::now();
        let state = setup()?;
        times.push(t.elapsed().as_secs_f64());
        Ok(state)
    };
    let before = cfg.setups.div_ceil(2).max(1);
    let mut state = timed(&mut times)?;
    for _ in 1..before {
        drop(state);
        state = timed(&mut times)?;
    }
    measure(state, &mut out)?;
    for _ in before..cfg.setups {
        drop(timed(&mut times)?);
    }
    eprintln!("perfbench: set-up times {times:?} s");
    out.e2e("setup_s", median(&times), "s");
    Ok(out)
}

/// Run one workload. The host canary brackets the run.
pub fn run_workload(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut canary = Canary::new();
    canary.sample();
    let mut out = match workload {
        "ingest" => ingest::run(cfg),
        "paper_q" => paper_q::run(cfg),
        "serve_rw" => serve_rw::run(cfg),
        other => Err(format!(
            "unknown workload '{other}' (ingest, paper_q, serve_rw)"
        )),
    }?;
    canary.sample();
    out.e2e(
        "success_frac",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
        "frac",
    );
    out.e2e("peak_rss_mb", report::peak_rss_mb(), "MiB");
    out.layer("host.canary_ms", canary.ms(), "ms");
    if cfg.trace {
        trace_metrics(&mut out, workload, cfg)?;
    }
    Ok(out)
}

/// Turn the run's spans into per-layer self times, estimate the tracing
/// overhead, and write the spans out.
fn trace_metrics(out: &mut Outcome, workload: &str, cfg: &RunConfig) -> Result<(), String> {
    let records = trace::drain();
    let selfs = trace::self_times(&records);
    let by_id: std::collections::HashMap<u64, &trace::Record> =
        records.iter().map(|r| (r.id, r)).collect();
    // Summed self time per span name within each root span, keyed by
    // (root name, root id).
    let mut per_root: std::collections::BTreeMap<
        (&str, u64),
        std::collections::HashMap<&str, u64>,
    > = Default::default();
    for r in &records {
        if let Some(root) = root_of(&by_id, r) {
            *per_root
                .entry((root.name, root.id))
                .or_default()
                .entry(r.name)
                .or_default() += selfs[&r.id];
        }
    }
    let ops = per_root.keys().filter(|(name, _)| *name == "op").count();
    for (span, metric, scale) in SPAN_METRICS {
        // A layer seen in primary ops is reported over those alone, so
        // reads and writes never share a median; write-only layers are
        // reported over the writes.
        let over = |root: &str| -> Vec<f64> {
            per_root
                .iter()
                .filter(|((name, _), _)| *name == root)
                .filter_map(|(_, m)| m.get(span))
                .map(|&ns| ns as f64 * scale)
                .collect()
        };
        let mut values = over("op");
        if values.is_empty() {
            values = over("write");
        }
        if !values.is_empty() {
            out.layer(metric, median(&values), unit_of(metric));
        }
    }
    if let Some(m) = out.end_to_end.iter().find(|m| m.name == "op_p50_ms") {
        let v = m.value;
        out.layer("trace.op_p50_ms", v, "ms");
    }
    let spans = records.len();
    out.layer("trace.ops", ops as f64, "count");
    out.layer(
        "trace.spans_per_op",
        spans as f64 / ops.max(1) as f64,
        "count",
    );
    // Overhead: the recorder's measured cost per span times the spans the
    // run recorded, over the measured time.
    let per_span_ns = span_cost_ns();
    out.layer(
        "trace.overhead_pct",
        spans as f64 * per_span_ns * 1e-9 / out.measured_s.max(1e-9) * 100.0,
        "%",
    );
    let path = std::env::temp_dir()
        .join("deeplens-perfbench")
        .join(format!("trace-{workload}-{}.jsonl", cfg.seed));
    trace::write_jsonl(&path, &records).map_err(|e| format!("writing {path:?}: {e}"))?;
    eprintln!("perfbench: wrote {spans} spans to {}", path.display());
    Ok(())
}

/// The root span `r` belongs to: an "op" of the workload's primary class
/// or a "write". Spans outside both (set-up, verification) have none.
fn root_of<'a>(
    by_id: &std::collections::HashMap<u64, &'a trace::Record>,
    mut r: &'a trace::Record,
) -> Option<&'a trace::Record> {
    loop {
        if r.name == "op" || r.name == "write" {
            return Some(r);
        }
        r = by_id.get(&r.parent)?;
    }
}

/// Cost of recording one span, measured on this host.
fn span_cost_ns() -> f64 {
    const N: usize = 50_000;
    trace::set_enabled(true);
    let t = Instant::now();
    for _ in 0..N {
        let _s = trace::span("calibration");
    }
    let ns = t.elapsed().as_nanos() as f64 / N as f64;
    trace::set_enabled(false);
    trace::drain();
    ns
}

fn unit_of(metric: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == metric)
        .map(|(_, u)| *u)
        .unwrap_or("ms")
}

/// The metrics of the result line: the full end-to-end list (every one
/// must be present) or the full per-layer list (absent layers read 0).
pub fn result_metrics(out: &Outcome, trace: bool) -> Result<Vec<Metric>, String> {
    if trace {
        Ok(PER_LAYER
            .iter()
            .map(|(name, unit)| Metric {
                name: (*name).into(),
                value: out.layer_value(name).unwrap_or(0.0),
                unit,
            })
            .collect())
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                out.end_to_end
                    .iter()
                    .find(|m| m.name == *name)
                    .map(|m| Metric {
                        name: (*name).into(),
                        value: m.value,
                        unit,
                    })
                    .ok_or_else(|| format!("workload did not measure {name}"))
            })
            .collect()
    }
}

fn parse_args() -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
        setups: 4,
        min_p90_samples: 100,
        ops: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: not {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
                    return Err(bad("positive"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn main() {
    let (workload, cfg) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = run_workload(&workload, &cfg);
    let _ = std::fs::remove_dir_all(cfg.session_dir(&workload));
    match result.and_then(|out| result_metrics(&out, cfg.trace).map(|m| (out, m))) {
        Ok((out, metrics)) => {
            for m in &metrics {
                eprintln!("perfbench: {workload} {} = {} {}", m.name, m.value, m.unit);
            }
            println!(
                "{}",
                report::result_line(true, out.attempted, out.failed, &metrics)
            );
        }
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every work counter of a short schedule must repeat exactly when the
    /// schedule runs again with the same seed: a changed counter means a
    /// changed plan, not noise. Admission is priced with a timing-calibrated
    /// planner, so the serve counters are asserted exactly too.
    #[test]
    fn work_counters_repeat_exactly_for_one_seed() {
        let cfg = RunConfig {
            seed: 7,
            seconds: 1.0,
            trace: true,
            setups: 1,
            min_p90_samples: 1,
            // Two serve_rw writes (every 32nd request) among the reads.
            ops: Some(64),
        };
        for workload in ["ingest", "paper_q", "serve_rw"] {
            let counters = |out: &Outcome| -> Vec<(String, f64)> {
                out.per_layer
                    .iter()
                    .filter(|m| m.unit == "count" && !m.name.starts_with("trace."))
                    .map(|m| (m.name.clone(), m.value))
                    .collect()
            };
            let a = run_workload(workload, &cfg).unwrap();
            let b = run_workload(workload, &cfg).unwrap();
            assert!(!counters(&a).is_empty(), "{workload}: no counters");
            assert_eq!(counters(&a), counters(&b), "{workload}: counters moved");
            if workload == "serve_rw" {
                assert_eq!(a.layer_value("serve.shed"), Some(0.0));
                assert_eq!(a.layer_value("serve.admitted"), Some(a.attempted as f64));
            }
        }
    }
}
