//! The result every run prints: one human-readable line per metric (with
//! its sample count) and, last, the one-line JSON object the benchmark's
//! contract asks for.

use crate::stats::{percentile, MIN_BEYOND};

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Observations behind the value (1 for a whole-run total).
    pub samples: usize,
}

#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Sizing errors: a percentile asked for without enough tail.
    pub errors: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        if !value.is_finite() {
            self.errors.push(format!("{name} is not a finite number"));
        }
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Push percentile `q` of `values` scaled by `scale`, or record a
    /// sizing error when the sample has no tail of [`MIN_BEYOND`] beyond it.
    pub fn push_percentile(
        &mut self,
        name: &'static str,
        values: &[f64],
        q: f64,
        scale: f64,
        unit: &'static str,
    ) {
        match percentile(values, q) {
            Some(v) => self.push(name, v * scale, unit, values.len()),
            None => {
                self.errors.push(format!(
                    "{name}: {} samples leave fewer than {MIN_BEYOND} beyond p{}",
                    values.len(),
                    q * 100.0
                ));
                self.push(name, f64::NAN, unit, values.len());
            }
        }
    }

    /// Print the metric lines and the JSON result; returns the process
    /// exit code (non-zero when the outputs were wrong or a metric could
    /// not be quoted).
    pub fn emit(&self) -> i32 {
        for m in &self.metrics {
            println!(
                "metric {:<32} {:>16} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for e in &self.errors {
            eprintln!("error: {e}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let correct = self.correct && self.errors.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        if correct {
            0
        } else {
            1
        }
    }
}
