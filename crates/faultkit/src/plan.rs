//! Serializable, deterministic fault plans.
//!
//! A [`FaultPlan`] is a list of rules saying *where* (design × stage), *when*
//! (attempt number), and *what* (panic / typed error / latency) to inject.
//! Every decision is a pure function of `(plan seed, design name, stage,
//! attempt)` — no wall-clock, no global RNG — so a chaos run is bit-identical
//! across repetitions and worker counts, and a failure found under a plan can
//! be replayed from the plan file alone.

use obskit::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// What a matching rule injects at the injection point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with an [`crate::InjectedPanic`] payload (tests panic isolation).
    Panic,
    /// A typed, transient error (tests retry logic). Fallible stages surface
    /// it through their own error type; infallible stages panic with a
    /// payload the supervisor classifies back into a transient error.
    Error,
    /// Sleep for the given duration before continuing (tests stage
    /// time budgets).
    Delay(Duration),
}

impl FaultKind {
    fn name(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Error => "error",
            FaultKind::Delay(_) => "delay_ms",
        }
    }
}

/// One injection rule. Matches on design name and stage (either may be the
/// wildcard `*`), fires while `attempt < attempts_below`, optionally
/// downsampled by `probability` (decided by a seeded hash, not an RNG).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Design name to match, or `*` for every design.
    pub design: String,
    /// Injection-point name to match (`hls`, `route`, `backtrace`,
    /// `features`, …), or `*` for every stage.
    pub stage: String,
    /// What to inject.
    pub kind: FaultKind,
    /// Fire while `attempt < attempts_below`. `1` (the default) makes the
    /// fault transient — it hits the first attempt only, so a retry
    /// recovers; a large value makes it persistent.
    pub attempts_below: u32,
    /// Probability the rule fires on a matching `(design, stage, attempt)`,
    /// decided deterministically from the plan seed. Default `1.0`.
    pub probability: f64,
}

impl FaultRule {
    /// A rule firing on the first attempt only, with probability 1.
    pub fn once(design: &str, stage: &str, kind: FaultKind) -> FaultRule {
        FaultRule {
            design: design.to_string(),
            stage: stage.to_string(),
            kind,
            attempts_below: 1,
            probability: 1.0,
        }
    }

    /// Same rule firing on every attempt below `n`.
    pub fn for_attempts(mut self, n: u32) -> FaultRule {
        self.attempts_below = n;
        self
    }

    fn matches(&self, seed: u64, design: &str, stage: &str, attempt: u32) -> bool {
        if self.design != "*" && self.design != design {
            return false;
        }
        if self.stage != "*" && self.stage != stage {
            return false;
        }
        if attempt >= self.attempts_below {
            return false;
        }
        self.probability >= 1.0 || roll(seed, design, stage, attempt) < self.probability
    }
}

/// A deterministic fault-injection plan: a seed plus an ordered rule list
/// (first matching rule wins).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed mixed into every probabilistic decision.
    pub seed: u64,
    /// Rules, evaluated in order.
    pub rules: Vec<FaultRule>,
}

/// Error parsing a fault-plan file.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanParseError(pub String);

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan: {}", self.0)
    }
}

impl std::error::Error for PlanParseError {}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Append a rule (builder style, used heavily by chaos tests).
    pub fn with_rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// The fault to inject at `(design, stage, attempt)`, if any: the first
    /// rule that matches. Pure — same arguments, same answer, forever.
    pub fn fault_for(&self, design: &str, stage: &str, attempt: u32) -> Option<&FaultRule> {
        self.rules
            .iter()
            .find(|r| r.matches(self.seed, design, stage, attempt))
    }

    /// Serialize to the JSON schema accepted by [`FaultPlan::from_json`].
    pub fn to_json(&self) -> String {
        let rules: Vec<Value> = self
            .rules
            .iter()
            .map(|r| {
                let mut obj = BTreeMap::new();
                obj.insert("design".into(), Value::Str(r.design.clone()));
                obj.insert("stage".into(), Value::Str(r.stage.clone()));
                obj.insert("kind".into(), Value::Str(r.kind.name().into()));
                if let FaultKind::Delay(d) = r.kind {
                    obj.insert("delay_ms".into(), Value::Num(d.as_millis() as f64));
                }
                obj.insert(
                    "attempts_below".into(),
                    Value::Num(f64::from(r.attempts_below)),
                );
                obj.insert("probability".into(), Value::Num(r.probability));
                Value::Obj(obj)
            })
            .collect();
        let mut top = BTreeMap::new();
        top.insert("seed".into(), Value::Num(self.seed as f64));
        top.insert("rules".into(), Value::Arr(rules));
        Value::Obj(top).to_json()
    }

    /// Parse a plan from JSON:
    ///
    /// ```json
    /// {
    ///   "seed": 7,
    ///   "rules": [
    ///     {"design": "*", "stage": "route", "kind": "panic"},
    ///     {"design": "d2", "stage": "hls", "kind": "delay_ms", "delay_ms": 800},
    ///     {"design": "d3", "stage": "hls", "kind": "error", "attempts_below": 99}
    ///   ]
    /// }
    /// ```
    ///
    /// `attempts_below` defaults to 1 (first attempt only) and
    /// `probability` to 1.0.
    ///
    /// # Errors
    /// Returns a [`PlanParseError`] describing the first malformed field.
    pub fn from_json(text: &str) -> Result<FaultPlan, PlanParseError> {
        let doc = json::parse(text).map_err(|e| PlanParseError(e.to_string()))?;
        if doc.as_obj().is_none() {
            return Err(PlanParseError(
                "top-level value must be an object with `seed` and `rules`".into(),
            ));
        }
        let seed = match doc.get("seed") {
            None => 0,
            Some(v) => v.as_u64().ok_or_else(|| {
                PlanParseError("`seed` must be a non-negative integer below 2^53".into())
            })?,
        };
        let mut rules = Vec::new();
        if let Some(list) = doc.get("rules") {
            let list = list
                .as_arr()
                .ok_or_else(|| PlanParseError("`rules` must be an array".into()))?;
            for (i, r) in list.iter().enumerate() {
                rules.push(parse_rule(r, i)?);
            }
        }
        Ok(FaultPlan { seed, rules })
    }
}

fn parse_rule(v: &Value, i: usize) -> Result<FaultRule, PlanParseError> {
    let err = |m: String| PlanParseError(format!("rule {i}: {m}"));
    let field = |k: &str| -> Result<&str, PlanParseError> {
        v.get(k)
            .and_then(Value::as_str)
            .ok_or_else(|| err(format!("missing string field `{k}`")))
    };
    let design = field("design")?.to_string();
    let stage = field("stage")?.to_string();
    let kind = match field("kind")? {
        "panic" => FaultKind::Panic,
        "error" => FaultKind::Error,
        "delay_ms" => {
            let ms = v
                .get("delay_ms")
                .and_then(Value::as_u64)
                .ok_or_else(|| err("kind `delay_ms` needs an integer `delay_ms` field".into()))?;
            FaultKind::Delay(Duration::from_millis(ms))
        }
        other => return Err(err(format!("unknown kind `{other}`"))),
    };
    let attempts_below = match v.get("attempts_below") {
        None => 1,
        Some(n) => n
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| err("`attempts_below` must be a small non-negative integer".into()))?,
    };
    let probability = match v.get("probability") {
        None => 1.0,
        Some(p) => {
            let p = p
                .as_f64()
                .ok_or_else(|| err("`probability` must be a number".into()))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(err(format!("probability {p} outside [0, 1]")));
            }
            p
        }
    };
    Ok(FaultRule {
        design,
        stage,
        kind,
        attempts_below,
        probability,
    })
}

/// Canonical injection-point names inside the serving daemon (`congestd`),
/// so chaos plans, the server, and tests agree on spelling. Stage names in
/// a [`FaultPlan`] are free strings — these constants are the serve-side
/// vocabulary, the way `hls`/`route`/`backtrace`/`features` are the
/// dataset-side one.
pub mod serve_stages {
    /// Request admission: queue push, framing, request decode.
    pub const ADMISSION: &str = "serve.admission";
    /// On-the-fly feature extraction for `Source` requests.
    pub const EXTRACT: &str = "serve.extract";
    /// Batched ensemble inference (`predict_into`).
    pub const PREDICT: &str = "serve.predict";
    /// Model-registry hot-swap (load, validate, commit).
    pub const SWAP: &str = "serve.swap";
    /// Every serve-side injection point, in lifecycle order.
    pub const ALL: &[&str] = &[ADMISSION, EXTRACT, PREDICT, SWAP];
}

/// FNV-1a over an arbitrary byte stream — the only "randomness" in
/// faultkit, and a convenient stable digest for callers keying
/// checkpoints or deriving jitter.
pub fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        // Separator so ("ab","c") and ("a","bc") hash differently.
        h ^= 0xff;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A deterministic uniform draw in `[0, 1)` for a probabilistic rule.
fn roll(seed: u64, design: &str, stage: &str, attempt: u32) -> f64 {
    let h = fnv1a(&[
        &seed.to_le_bytes(),
        design.as_bytes(),
        stage.as_bytes(),
        &attempt.to_le_bytes(),
    ]);
    // 53 high bits → uniform double in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn first_matching_rule_wins_and_wildcards_match() {
        let plan = FaultPlan::new(1)
            .with_rule(FaultRule::once("d0", "hls", FaultKind::Error))
            .with_rule(FaultRule::once("*", "hls", FaultKind::Panic));
        assert_eq!(
            plan.fault_for("d0", "hls", 0).unwrap().kind,
            FaultKind::Error
        );
        assert_eq!(
            plan.fault_for("d9", "hls", 0).unwrap().kind,
            FaultKind::Panic
        );
        assert!(plan.fault_for("d9", "route", 0).is_none());
        // attempts_below = 1 → silent from the second attempt on.
        assert!(plan.fault_for("d0", "hls", 1).is_none());
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::new(99).with_rule(FaultRule {
            probability: 0.5,
            ..FaultRule::once("*", "*", FaultKind::Panic)
        });
        for attempt in 0..32 {
            let a = plan.fault_for("design", "route", attempt).is_some();
            let b = plan.fault_for("design", "route", attempt).is_some();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn probability_roughly_respected() {
        let plan = FaultPlan::new(7).with_rule(FaultRule {
            probability: 0.25,
            attempts_below: u32::MAX,
            ..FaultRule::once("*", "*", FaultKind::Panic)
        });
        let fired = (0..4000)
            .filter(|&a| plan.fault_for("d", "s", a).is_some())
            .count();
        assert!((800..1200).contains(&fired), "fired {fired}/4000");
    }

    #[test]
    fn json_example_parses() {
        let plan = FaultPlan::from_json(
            r#"{"seed": 7, "rules": [
                {"design": "*", "stage": "route", "kind": "panic"},
                {"design": "d2", "stage": "hls", "kind": "delay_ms", "delay_ms": 800},
                {"design": "d3", "stage": "hls", "kind": "error", "attempts_below": 99, "probability": 0.75}
            ]}"#,
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(
            plan.rules[1].kind,
            FaultKind::Delay(Duration::from_millis(800))
        );
        assert_eq!(plan.rules[2].attempts_below, 99);
        assert_eq!(plan.rules[2].probability, 0.75);
    }

    #[test]
    fn serve_stage_points_match_and_roundtrip() {
        let mut plan = FaultPlan::new(3);
        for (i, stage) in serve_stages::ALL.iter().enumerate() {
            plan.rules.push(FaultRule {
                attempts_below: i as u32 + 1,
                ..FaultRule::once("*", stage, FaultKind::Error)
            });
        }
        for stage in serve_stages::ALL {
            assert!(
                plan.fault_for("req-17", stage, 0).is_some(),
                "serve stage `{stage}` must be targetable"
            );
        }
        assert!(plan.fault_for("req-17", "serve.reply", 0).is_none());
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(plan, back, "serve-stage plans survive the JSON round-trip");
    }

    #[test]
    fn bad_plans_rejected_with_context() {
        for (text, needle) in [
            ("[]", "object"),                             // not an object
            (r#"{"rules": [{"design": "d"}]}"#, "stage"), // missing field
            (
                r#"{"rules": [{"design":"d","stage":"s","kind":"x"}]}"#,
                "unknown kind",
            ),
            (
                r#"{"rules": [{"design":"d","stage":"s","kind":"delay_ms"}]}"#,
                "delay_ms",
            ),
            (
                r#"{"rules": [{"design":"d","stage":"s","kind":"panic","probability":2}]}"#,
                "probability",
            ),
            // 2^53 + 1 would silently become 2^53 (JSON numbers are f64).
            (r#"{"seed": 9007199254740993, "rules": []}"#, "seed"),
        ] {
            let e = FaultPlan::from_json(text).unwrap_err();
            assert!(e.0.contains(needle), "`{text}` → {e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any plan survives a JSON round-trip bit-identically (delays are
        /// whole milliseconds, so `Duration` round-trips exactly).
        #[test]
        fn plan_roundtrips_through_json(
            seed in 0u64..1_000_000,
            n in 0usize..6,
            k in 0u32..3,
            ms in 1u64..5_000,
            attempts in 1u32..100,
            prob_pct in 0u32..101,
        ) {
            let kind = match k {
                0 => FaultKind::Panic,
                1 => FaultKind::Error,
                _ => FaultKind::Delay(Duration::from_millis(ms)),
            };
            let mut plan = FaultPlan::new(seed);
            for i in 0..n {
                plan.rules.push(FaultRule {
                    design: format!("design-{i}"),
                    stage: match i % 4 {
                        0 => "hls".into(),
                        1 => "*".into(),
                        2 => serve_stages::PREDICT.into(),
                        _ => serve_stages::ADMISSION.into(),
                    },
                    kind: kind.clone(),
                    attempts_below: attempts,
                    probability: f64::from(prob_pct) / 100.0,
                });
            }
            let back = FaultPlan::from_json(&plan.to_json()).unwrap();
            prop_assert_eq!(plan, back);
        }
    }
}
