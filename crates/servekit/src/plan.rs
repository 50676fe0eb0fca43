//! Fault plans for congestd's chaos tests: what to inject where, and the
//! injection itself.
//!
//! A [`FaultPlan`] is a list of rules saying *where* (design × stage) and
//! *what* (panic / typed error / latency) to inject. Every decision is a
//! pure function of `(plan seed, design name, stage)` — no wall-clock, no
//! global RNG — so a chaos run is bit-identical across repetitions and
//! worker counts, and a failure found under a plan can be replayed from
//! the plan file alone. The server runs each serve stage once
//! ([`serve_stages::ALL`]), so a rule fails every request it matches.
//!
//! ```
//! use servekit::{serve_stages, FaultKind, FaultPlan, FaultRule};
//!
//! // An error at `serve.predict` of request 7 only.
//! let plan = FaultPlan::new(7).with_rule(FaultRule::new(
//!     "req-7",
//!     serve_stages::PREDICT,
//!     FaultKind::Error,
//! ));
//! let rule = plan.fault_for("req-7", serve_stages::PREDICT).unwrap();
//! let fault = rule.kind.inject("req-7", serve_stages::PREDICT).unwrap_err();
//! assert_eq!(
//!     fault.to_string(),
//!     "injected transient error at `serve.predict` (design `req-7`)"
//! );
//! assert!(plan.fault_for("req-8", serve_stages::PREDICT).is_none());
//! ```

use obskit::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// What a matching rule injects at the injection point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with an [`InjectedPanic`] payload (tests panic isolation).
    Panic,
    /// A typed error, surfaced through the stage's own failure path.
    Error,
    /// Sleep for the given duration before continuing (tests request
    /// deadlines and overload).
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

    /// Inject this fault into `stage` of `design`: return an
    /// [`InjectedFault`] for `error`, sleep for `delay_ms`, and panic with
    /// an [`InjectedPanic`] payload for `panic`.
    ///
    /// # Errors
    /// The [`InjectedFault`] of an `error` fault.
    pub fn inject(&self, design: &str, stage: &str) -> Result<(), InjectedFault> {
        match self {
            FaultKind::Error => Err(InjectedFault {
                stage: stage.to_string(),
                design: design.to_string(),
            }),
            FaultKind::Delay(d) => {
                std::thread::sleep(*d);
                Ok(())
            }
            FaultKind::Panic => std::panic::panic_any(InjectedPanic {
                message: format!("injected panic at `{stage}` (design `{design}`)"),
            }),
        }
    }
}

/// One injection rule. Matches on design name and stage (either may be the
/// wildcard `*`), optionally downsampled by `probability` (decided by a
/// seeded hash, not an RNG).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Design name to match, or `*` for every design.
    pub design: String,
    /// Injection-point name to match (one of [`serve_stages::ALL`]), or
    /// `*` for every stage.
    pub stage: String,
    /// What to inject.
    pub kind: FaultKind,
    /// Probability the rule fires on a matching `(design, stage)`, decided
    /// deterministically from the plan seed. Default `1.0`.
    pub probability: f64,
}

impl FaultRule {
    /// A rule firing on every match, with probability 1.
    pub fn new(design: &str, stage: &str, kind: FaultKind) -> FaultRule {
        FaultRule {
            design: design.to_string(),
            stage: stage.to_string(),
            kind,
            probability: 1.0,
        }
    }

    fn matches(&self, seed: u64, design: &str, stage: &str) -> bool {
        if self.design != "*" && self.design != design {
            return false;
        }
        if self.stage != "*" && self.stage != stage {
            return false;
        }
        self.probability >= 1.0 || roll(seed, design, stage) < self.probability
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

/// The keys a plan file's top level may hold.
const PLAN_KEYS: &[&str] = &["seed", "rules"];

/// The keys a plan file's rule may hold.
const RULE_KEYS: &[&str] = &["design", "stage", "kind", "delay_ms", "probability"];

/// The first key of `obj` outside `schema`, as an error listing the
/// schema's keys.
fn unknown_key(obj: &BTreeMap<String, Value>, schema: &[&str]) -> Option<String> {
    let key = obj.keys().find(|k| !schema.contains(&k.as_str()))?;
    let valid: Vec<String> = schema.iter().map(|k| format!("`{k}`")).collect();
    Some(format!(
        "unknown key `{key}`; valid keys are {}",
        valid.join(", ")
    ))
}

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

    /// The fault to inject at `(design, stage)`, if any: the first rule
    /// that matches. Pure — same arguments, same answer, forever.
    pub fn fault_for(&self, design: &str, stage: &str) -> Option<&FaultRule> {
        self.rules
            .iter()
            .find(|r| r.matches(self.seed, design, stage))
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
    ///     {"design": "*", "stage": "serve.predict", "kind": "panic"},
    ///     {"design": "d2", "stage": "serve.extract", "kind": "delay_ms", "delay_ms": 800},
    ///     {"design": "*", "stage": "serve.swap", "kind": "error", "probability": 0.5}
    ///   ]
    /// }
    /// ```
    ///
    /// `stage` is `*` or one of [`serve_stages::ALL`]; `probability`
    /// defaults to 1.0.
    ///
    /// # Errors
    /// Returns a [`PlanParseError`] describing the first malformed field,
    /// including a stage with no injection point and a key outside the
    /// schema (a misspelt key would otherwise change the plan silently).
    pub fn from_json(text: &str) -> Result<FaultPlan, PlanParseError> {
        let doc = json::parse(text).map_err(|e| PlanParseError(e.to_string()))?;
        let Some(top) = doc.as_obj() else {
            return Err(PlanParseError(
                "top-level value must be an object with `seed` and `rules`".into(),
            ));
        };
        if let Some(e) = unknown_key(top, PLAN_KEYS) {
            return Err(PlanParseError(e));
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
    if let Some(e) = v.as_obj().and_then(|obj| unknown_key(obj, RULE_KEYS)) {
        return Err(err(e));
    }
    let field = |k: &str| -> Result<&str, PlanParseError> {
        v.get(k)
            .and_then(Value::as_str)
            .ok_or_else(|| err(format!("missing string field `{k}`")))
    };
    let design = field("design")?.to_string();
    let stage = field("stage")?.to_string();
    if stage != "*" && !serve_stages::ALL.contains(&stage.as_str()) {
        // A rule no injection point reads would be armed and never fire.
        return Err(err(format!(
            "unknown stage `{stage}`; valid stages are `*`, {}",
            serve_stages::ALL.join(", ")
        )));
    }
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
        probability,
    })
}

/// The injection points inside the serving daemon (`congestd`), so chaos
/// plans, the server, and tests agree on spelling. A plan file may name
/// only these stages (or `*`).
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

/// A deterministic uniform draw in `[0, 1)` for a probabilistic rule:
/// an FNV-1a hash, the only "randomness" in a fault plan.
fn roll(seed: u64, design: &str, stage: &str) -> f64 {
    let h = obskit::fnv1a(&[&seed.to_le_bytes(), design.as_bytes(), stage.as_bytes()]);
    // 53 high bits → uniform double in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A typed, injected error: what [`FaultKind::inject`] returns for an
/// `error` fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Injection-point name.
    pub stage: String,
    /// Design being processed when the fault fired.
    pub design: String,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected transient error at `{}` (design `{}`)",
            self.stage, self.design
        )
    }
}

impl std::error::Error for InjectedFault {}

/// The panic payload of an injected panic, so the quiet panic hook can
/// tell it from a genuine bug by downcasting instead of string-matching.
#[derive(Debug, Clone)]
pub struct InjectedPanic {
    /// Human-readable description of the injection.
    pub message: String,
}

/// Install a process-wide panic hook that suppresses the default
/// "thread panicked" stderr message for *injected* panics (payload is an
/// [`InjectedPanic`]) and delegates everything else to the previous hook.
/// Idempotent; the server calls it at start, so chaos runs don't spray
/// stderr.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serve_stages::{ADMISSION, EXTRACT, PREDICT, SWAP};

    #[test]
    fn first_matching_rule_wins_and_wildcards_match() {
        let plan = FaultPlan::new(1)
            .with_rule(FaultRule::new("d0", EXTRACT, FaultKind::Error))
            .with_rule(FaultRule::new("*", EXTRACT, FaultKind::Panic));
        assert_eq!(
            plan.fault_for("d0", EXTRACT).unwrap().kind,
            FaultKind::Error
        );
        assert_eq!(
            plan.fault_for("d9", EXTRACT).unwrap().kind,
            FaultKind::Panic
        );
        assert!(plan.fault_for("d9", PREDICT).is_none());
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::new(99).with_rule(FaultRule {
            probability: 0.5,
            ..FaultRule::new("*", "*", FaultKind::Panic)
        });
        let fired = |design: &str| plan.fault_for(design, PREDICT).is_some();
        let designs: Vec<String> = (0..32).map(|i| format!("req-{i}")).collect();
        for design in &designs {
            assert_eq!(fired(design), fired(design));
        }
        // Half the designs, so the roll reads the design at all.
        let n = designs.iter().filter(|d| fired(d)).count();
        assert!((1..32).contains(&n), "fired {n}/32");
    }

    #[test]
    fn probability_roughly_respected() {
        let plan = FaultPlan::new(7).with_rule(FaultRule {
            probability: 0.25,
            ..FaultRule::new("*", "*", FaultKind::Panic)
        });
        let fired = (0..4000)
            .filter(|i| plan.fault_for(&format!("req-{i}"), PREDICT).is_some())
            .count();
        assert!((800..1200).contains(&fired), "fired {fired}/4000");
    }

    #[test]
    fn json_example_parses() {
        let plan = FaultPlan::from_json(
            r#"{"seed": 7, "rules": [
                {"design": "*", "stage": "serve.predict", "kind": "panic"},
                {"design": "d2", "stage": "serve.extract", "kind": "delay_ms", "delay_ms": 800},
                {"design": "d3", "stage": "serve.swap", "kind": "error", "probability": 0.75}
            ]}"#,
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(
            plan.rules[1].kind,
            FaultKind::Delay(Duration::from_millis(800))
        );
        assert_eq!(plan.rules[0].probability, 1.0);
        assert_eq!(plan.rules[2].probability, 0.75);
    }

    #[test]
    fn serve_stage_points_match_and_roundtrip() {
        let mut plan = FaultPlan::new(3);
        for stage in serve_stages::ALL {
            plan.rules
                .push(FaultRule::new("*", stage, FaultKind::Error));
        }
        for stage in serve_stages::ALL {
            assert!(
                plan.fault_for("req-17", stage).is_some(),
                "serve stage `{stage}` must be targetable"
            );
        }
        assert!(plan.fault_for("req-17", "serve.reply").is_none());
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(plan, back, "serve-stage plans survive the JSON round-trip");
    }

    #[test]
    fn bad_plans_rejected_with_context() {
        for (text, needle) in [
            ("[]", "object"),                             // not an object
            (r#"{"rules": [{"design": "d"}]}"#, "stage"), // missing field
            (
                r#"{"rules": [{"design":"d","stage":"*","kind":"x"}]}"#,
                "unknown kind",
            ),
            (
                r#"{"rules": [{"design":"d","stage":"*","kind":"delay_ms"}]}"#,
                "delay_ms",
            ),
            (
                r#"{"rules": [{"design":"d","stage":"*","kind":"panic","probability":2}]}"#,
                "probability",
            ),
            // Stages with no injection point would be armed and never fire.
            (
                r#"{"rules": [{"design":"mac16","stage":"route","kind":"panic"}]}"#,
                "unknown stage `route`; valid stages are `*`, serve.admission",
            ),
            (
                r#"{"rules": [{"design":"*","stage":"hls","kind":"error"}]}"#,
                "serve.predict, serve.swap",
            ),
            // 2^53 + 1 would silently become 2^53 (JSON numbers are f64).
            (r#"{"seed": 9007199254740993, "rules": []}"#, "seed"),
            // A misspelt key would arm an empty plan, or a rule that fires
            // on every match.
            (
                r#"{"seed": 3, "rule": [{"design":"*","stage":"*","kind":"panic"}]}"#,
                "unknown key `rule`; valid keys are `seed`, `rules`",
            ),
            (
                r#"{"rules": [{"design":"*","stage":"*","kind":"panic"},
                              {"design":"*","stage":"*","kind":"error","probabilty":0.0}]}"#,
                "rule 1: unknown key `probabilty`; valid keys are `design`, `stage`, \
                 `kind`, `delay_ms`, `probability`",
            ),
        ] {
            let e = FaultPlan::from_json(text).unwrap_err();
            assert!(e.0.contains(needle), "`{text}` → {e}");
        }
    }

    #[test]
    fn error_fault_is_typed() {
        let e = FaultKind::Error.inject("req-3", SWAP).unwrap_err();
        assert_eq!(
            e,
            InjectedFault {
                stage: SWAP.into(),
                design: "req-3".into()
            }
        );
        let delay = FaultKind::Delay(Duration::from_millis(1));
        assert!(delay.inject("req-3", ADMISSION).is_ok());
    }

    #[test]
    fn panic_fault_carries_marker_payload() {
        silence_injected_panics();
        let caught =
            std::panic::catch_unwind(|| FaultKind::Panic.inject("d", PREDICT)).unwrap_err();
        let p = caught
            .downcast_ref::<InjectedPanic>()
            .expect("marker payload");
        assert_eq!(p.message, "injected panic at `serve.predict` (design `d`)");
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
                        0 => EXTRACT.into(),
                        1 => "*".into(),
                        2 => PREDICT.into(),
                        _ => ADMISSION.into(),
                    },
                    kind: kind.clone(),
                    probability: f64::from(prob_pct) / 100.0,
                });
            }
            let back = FaultPlan::from_json(&plan.to_json()).unwrap();
            prop_assert_eq!(plan, back);
        }
    }
}
