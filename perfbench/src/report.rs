//! Results: named metrics with units and the samples behind them, and
//! their JSON rendering.

use crate::check::Fault;
use crate::stats::Spread;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// What the value summarises (per-request latencies, per-second
    /// windows, set-up repetitions); their quartiles go to the record.
    pub samples: Vec<f64>,
}

impl Metric {
    /// A value measured once.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self {
            name,
            unit,
            value,
            samples: vec![value],
        }
    }

    /// The median of `samples`.
    pub fn median(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        let value = Spread::of(&samples).map_or(f64::NAN, |s| s.median);
        Self {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when a check of what the program guarantees failed: an answer
    /// breaking the serving contract, answers that change between requests,
    /// a replay mismatch, a coverage floor missed.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Further numbers for the record only: layers one workload lacks,
    /// sample counts, set-up repetitions.
    pub extra: Vec<(String, f64)>,
    /// The first few check failures, for the record.
    pub faults: Vec<String>,
    /// Measured like `metrics`, but for the record only.
    pub record_metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    pub fn extra(&mut self, name: impl Into<String>, value: f64) {
        self.extra.push((name.into(), value));
    }

    /// Records a failed check that makes the run incorrect, keeping its
    /// description if few are kept.
    pub fn fault(&mut self, what: String) {
        self.correct = false;
        self.note(what);
    }

    /// Records a finding for the record without marking the run incorrect.
    pub fn note(&mut self, what: String) {
        if self.faults.len() < 20 {
            self.faults.push(what);
        }
    }

    /// Counts `requests` failed requests that received a bad answer. Only a
    /// fault that breaks the serving contract makes the run incorrect; see
    /// [`Fault::breaks_contract`].
    pub fn bad_answer(&mut self, requests: u64, what: String, fault: Fault) {
        self.failed += requests;
        let what = format!("{what}: {fault}");
        if fault.breaks_contract() {
            self.fault(what);
        } else {
            self.note(what);
        }
    }
}

/// A JSON number; non-finite values have no JSON form and become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-rendered values.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The result line: `correct`, `attempted`, `failed` and each metric's
/// value with its unit.
pub fn result_line(o: &Outcome) -> String {
    let metrics = object(o.metrics.iter().map(|m| {
        (
            m.name,
            object([("value", num(m.value)), ("unit", string(m.unit))]),
        )
    }));
    object([
        ("correct", o.correct.to_string()),
        ("attempted", o.attempted.to_string()),
        ("failed", o.failed.to_string()),
        ("metrics", metrics),
    ])
}

/// Each metric with the sample count and quartiles behind its value.
pub fn metrics_with_spread(metrics: &[Metric]) -> String {
    object(metrics.iter().map(|m| {
        let spread = Spread::of(&m.samples);
        let mut fields = vec![("value", num(m.value)), ("unit", string(m.unit))];
        if let Some(s) = spread {
            fields.extend([
                ("n", s.n.to_string()),
                ("q1", num(s.q1)),
                ("median", num(s.median)),
                ("q3", num(s.q3)),
            ]);
        }
        (m.name, object(fields))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            correct: true,
            ..Outcome::default()
        };
        o.push(Metric::single("setup_s", "s", 1.25));
        assert_eq!(
            result_line(&o),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":1.25,"unit":"s"}}}"#
        );
    }

    #[test]
    fn strings_are_escaped_and_non_finite_numbers_are_null() {
        assert_eq!(string("a\"b\\c\n"), r#""a\"b\\c\u000a""#);
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(0.5), "0.5");
    }

    #[test]
    fn fault_marks_the_outcome_incorrect() {
        let mut o = Outcome {
            correct: true,
            ..Outcome::default()
        };
        o.fault("bad".into());
        assert!(!o.correct);
        assert_eq!(o.faults, vec!["bad".to_owned()]);
    }

    #[test]
    fn short_answers_fail_requests_but_keep_the_run_correct() {
        let mut o = Outcome {
            correct: true,
            ..Outcome::default()
        };
        o.bad_answer(
            2,
            "user 1".into(),
            Fault::Short {
                len: 9,
                possible: 10,
            },
        );
        assert!(o.correct);
        assert_eq!(o.failed, 2);
        o.bad_answer(1, "user 2".into(), Fault::Seen(4));
        assert!(!o.correct);
        assert_eq!(o.failed, 3);
        assert_eq!(o.faults.len(), 2);
    }
}
