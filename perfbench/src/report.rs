//! Named metrics, per-phase request accounting and the result line.

use std::fmt::Write as _;

/// One measured figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the figure (1 for a single measurement).
    pub samples: usize,
}

/// An ordered set of metrics.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        let name = name.into();
        self.0.retain(|m| m.name != name);
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Prints one `metric` line per entry: name, value, unit, samples.
    pub fn print(&self, prefix: &str) {
        for m in &self.0 {
            println!(
                "{prefix}{:<34} {:>14.4} {:<7} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
}

/// Request accounting for one phase (infer requests, streams opened,
/// decoded tokens, forwards). A shed request (429/503) counts as failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phase {
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub failed: u64,
    pub mismatched: u64,
}

impl Phase {
    pub fn merge(&mut self, o: &Phase) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.shed += o.shed;
        self.failed += o.failed;
        self.mismatched += o.mismatched;
    }

    /// Operations that did not produce a verified answer.
    pub fn bad(&self) -> u64 {
        self.shed + self.failed + self.mismatched
    }

    pub fn print(&self, name: &str) {
        println!(
            "phase {name:<8} sent {:>8}  ok {:>8}  shed {:>4}  failed {:>4}  mismatched {:>4}",
            self.sent, self.ok, self.shed, self.failed, self.mismatched
        );
    }
}

/// Renders the final result object (the last line of stdout).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}
