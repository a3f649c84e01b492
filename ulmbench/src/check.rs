//! Correctness accounting and the per-run result record.

use serde::Value;

/// Everything one run reports: operations attempted and failed, the
/// metrics, and free-form detail lines printed before the result.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Only the first few failure messages are kept; the count is exact.
const KEPT_ERRORS: usize = 20;

impl Outcome {
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(msg.into());
        }
    }

    /// Records a failure unless `ok`; returns `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) -> bool {
        if !ok {
            self.fail(msg());
        }
        ok
    }

    /// Compares a digest with its committed value.
    pub fn check_digest(&mut self, what: &str, got: u64, want: u64) {
        self.check(got == want, || {
            format!("{what}: digest {got:#018x}, committed {want:#018x}")
        });
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Failed or refused operations plus oracle mismatches, over
    /// operations attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Response fields that legitimately differ between two answers to the
/// same line: wall-clock timing and whether a cache or specialization
/// happened to be warm.
const VOLATILE: [&str; 3] = ["elapsed_ms", "cached", "specialized_reused"];

/// A response with its volatile top-level fields removed, re-encoded, so
/// two answers to one line compare as strings.
pub fn normalize(response: &str) -> Result<String, String> {
    let value: Value =
        serde_json::from_str(response).map_err(|e| format!("unparsable response: {e}"))?;
    let Value::Object(fields) = value else {
        return Err(format!("response is not an object: {response:.120}"));
    };
    let kept: Vec<(String, Value)> = fields
        .into_iter()
        .filter(|(k, _)| !VOLATILE.contains(&k.as_str()))
        .collect();
    serde_json::to_string(&Value::Object(kept)).map_err(|e| e.to_string())
}

/// True when the response reports `"ok":true`.
pub fn response_ok(response: &str) -> bool {
    response.contains(r#""ok":true"#)
}

/// The response's `"cached"` flag.
pub fn response_cached(response: &str) -> bool {
    response.contains(r#""cached":true"#)
}

/// Checks one server response against the in-process answer to the same
/// line (both normalized). Error responses fail the check by themselves.
pub fn check_response(out: &mut Outcome, line: &str, got: &str, want: &str) {
    if !out.check(response_ok(got), || {
        format!("error response to {line:.100}: {got:.200}")
    }) {
        return;
    }
    match (normalize(got), normalize(want)) {
        (Ok(g), Ok(w)) => {
            out.check(g == w, || {
                format!("response mismatch for {line:.100}: got {g:.160} want {w:.160}")
            });
        }
        (Err(e), _) | (_, Err(e)) => out.fail(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_drops_only_volatile_fields() {
        let a = r#"{"id":1,"ok":true,"cached":false,"latency":{"cc_total":5.0},"elapsed_ms":0.5}"#;
        let b = r#"{"id":1,"ok":true,"cached":true,"latency":{"cc_total":5.0},"elapsed_ms":0.1}"#;
        let c = r#"{"id":1,"ok":true,"cached":true,"latency":{"cc_total":6.0},"elapsed_ms":0.1}"#;
        assert_eq!(normalize(a).unwrap(), normalize(b).unwrap());
        assert_ne!(normalize(a).unwrap(), normalize(c).unwrap());
    }

    #[test]
    fn injected_error_response_raises_error_rate() {
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        let good = r#"{"id":1,"ok":true,"x":1}"#;
        check_response(&mut out, "l", good, good);
        assert_eq!(out.error_rate(), 0.0);
        assert!(out.correct());
        let bad = r#"{"id":1,"ok":false,"error":"boom","code":"request/invalid"}"#;
        check_response(&mut out, "l", bad, good);
        assert_eq!(out.failed, 1);
        assert!((out.error_rate() - 0.1).abs() < 1e-12);
        assert!(!out.correct());
    }

    #[test]
    fn injected_mismatch_raises_error_rate() {
        let mut out = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        check_response(
            &mut out,
            "l",
            r#"{"ok":true,"v":1}"#,
            r#"{"ok":true,"v":2}"#,
        );
        out.check_digest("ref", 1, 1);
        assert_eq!(out.failed, 1);
        out.check_digest("ref", 1, 2);
        assert_eq!(out.failed, 2);
        assert!((out.error_rate() - 0.5).abs() < 1e-12);
        assert!(!out.correct());
    }
}
