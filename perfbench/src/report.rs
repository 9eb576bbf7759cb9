//! Metric collection, percentiles, and the one-line JSON result.

use std::time::Instant;

use deeplens_exec::kernels::distances_vectorized;
use deeplens_exec::Matrix;

/// A named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the measured schedule.
    pub measured_s: f64,
    /// End-to-end metrics (reported with tracing off).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (reported by the traced run).
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The layer metric named `name`, if recorded.
    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.per_layer
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Nearest-rank percentile `q` (0..=1) of `samples` (any order).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Host canary: a fixed vectorized distance pass whose time depends only on
/// the host's speed at the moment, never on the engine's state. Timed
/// before and after each run so a slow host phase shows beside the layer
/// numbers.
pub struct Canary {
    matrix: Matrix,
    query: Vec<f32>,
    samples: Vec<f64>,
}

impl Canary {
    pub fn new() -> Self {
        const ROWS: usize = 40_000;
        const DIM: usize = 32;
        let data: Vec<f32> = (0..ROWS * DIM)
            .map(|i| ((i * 2_654_435_761) % 1000) as f32 / 1000.0)
            .collect();
        Canary {
            matrix: Matrix::from_vec(ROWS, DIM, data),
            query: (0..DIM).map(|i| i as f32 / DIM as f32).collect(),
            samples: Vec::new(),
        }
    }

    /// Time five rounds of four passes and keep the median round.
    pub fn sample(&mut self) {
        let mut times = Vec::with_capacity(5);
        for _ in 0..5 {
            let t = Instant::now();
            for _ in 0..4 {
                std::hint::black_box(distances_vectorized(&self.matrix, &self.query));
            }
            times.push(ms_since(t));
        }
        self.samples.push(median(&times));
    }

    /// Median canary time over every sample taken.
    pub fn ms(&self) -> f64 {
        median(&self.samples)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
