//! Result reporting: metrics, the self-describing `meta` record, the
//! operation ledger, and the one-line JSON result.
//!
//! The workload process prints human-readable lines, a `meta {...}` line
//! and finally `@result {...}`; `@progress <attempted> <failed>` lines
//! keep the supervising process informed so a crash can still be
//! charged with every operation attempted before it.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// A JSON value, enough for the benchmark's output.
#[derive(Debug, Clone, PartialEq)]
pub enum J {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj(pairs: Vec<(&str, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }
}

impl std::fmt::Display for J {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // `{:?}` prints the shortest string that reads back to the
            // same f64: every digit measured, nothing invented.
            J::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            J::Num(_) => write!(f, "null"),
            J::Int(x) => write!(f, "{x}"),
            J::Bool(b) => write!(f, "{b}"),
            J::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            J::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            J::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{}:{v}", J::Str(k.clone()))?;
                }
                f.write_char('}')
            }
        }
    }
}

static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
static FAILED: AtomicU64 = AtomicU64::new(0);

/// How often (in operations) a stream reports progress.
const PROGRESS_EVERY: u64 = 4_096;

/// Counts `n` operations attempted.
pub fn attempt(n: u64) {
    let before = ATTEMPTED.fetch_add(n, Ordering::Relaxed);
    if (before + n) / PROGRESS_EVERY != before / PROGRESS_EVERY {
        progress();
    }
}

/// Counts `n` operations that failed or answered wrongly.
pub fn fail(n: u64) {
    FAILED.fetch_add(n, Ordering::Relaxed);
    progress();
}

pub fn attempted() -> u64 {
    ATTEMPTED.load(Ordering::Relaxed)
}

pub fn failed() -> u64 {
    FAILED.load(Ordering::Relaxed)
}

/// Tells the supervisor how many operations have been attempted so far.
pub fn progress() {
    println!("@progress {} {}", attempted(), failed());
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics and metadata a workload run accumulates.
#[derive(Debug, Default)]
pub struct Report {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub meta: Vec<(String, J)>,
    /// Why the run is not a correct result, if it is not.
    pub problems: Vec<String>,
}

impl Report {
    /// Records an end-to-end metric and prints it.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, note: &str) {
        println!("{name:<22} {value:>14.3} {unit:<10} {note}");
        self.end_to_end.push(Metric { name, value, unit });
    }

    /// Prints a figure that is not a gated metric and records it in the
    /// `meta` record.
    pub fn info(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        println!("{name:<22} {value:>14.3} {unit:<10} {note} (not gated)");
        self.meta(name, J::Num(value));
    }

    /// Records a per-layer metric and prints it.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("  {name:<34} {value:>14.3} {unit}");
        self.per_layer.push(Metric { name, value, unit });
    }

    pub fn meta(&mut self, key: &str, value: J) {
        self.meta.push((key.to_string(), value));
    }

    pub fn problem(&mut self, what: String) {
        println!("PROBLEM: {what}");
        self.problems.push(what);
    }

    /// The final result line (without the `@result ` prefix).
    pub fn result_json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut correct = self.problems.is_empty() && failed() == 0;
        let mut pairs = Vec::new();
        for m in metrics {
            correct &= m.value.is_finite();
            pairs.push((
                m.name,
                J::obj(vec![("value", J::Num(m.value)), ("unit", J::str(m.unit))]),
            ));
        }
        J::obj(vec![
            ("correct", J::Bool(correct)),
            ("attempted", J::Int(attempted().max(1))),
            ("failed", J::Int(failed())),
            ("metrics", J::obj(pairs)),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rendering() {
        let j = J::obj(vec![
            ("a", J::Num(1.5)),
            ("b", J::Int(3)),
            ("c", J::str("x\"y\n")),
            ("d", J::Bool(false)),
            ("e", J::Num(f64::NAN)),
            ("f", J::Arr(vec![J::Int(1), J::Num(0.5)])),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"a":1.5,"b":3,"c":"x\"y\u000a","d":false,"e":null,"f":[1,0.5]}"#
        );
        assert_eq!(J::Num(0.1 + 0.2).to_string(), "0.30000000000000004");
    }
}
