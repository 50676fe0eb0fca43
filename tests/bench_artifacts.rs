//! Committed bench-artifact schema contract.
//!
//! Every `BENCH_*.json` baseline at the repo root and every
//! `reports/*_bench.json` mirror must parse as a well-formed
//! `obskit.metrics.v1` document with complete meta stamps (tool, version,
//! git, effort, the four kernel selections). A stale artifact — one
//! emitted before a schema or meta change — fails here, in CI, instead of
//! silently passing the regression gate with missing fields. The mirror
//! and root copies come from one writer, so full-effort mirrors must be
//! byte-identical to their baselines.

use fpga_hls_congestion::obskit::json::{parse, Value};
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf()
}

/// Baseline ↔ mirror pairs the canonical writer produces.
const PAIRS: &[(&str, &str)] = &[
    ("BENCH_place.json", "reports/place_bench.json"),
    ("BENCH_route.json", "reports/router_bench.json"),
    ("BENCH_train.json", "reports/train_bench.json"),
    ("BENCH_pipeline.json", "reports/pipeline_bench.json"),
];

/// Parse one artifact and assert the `obskit.metrics.v1` contract.
fn assert_metrics_doc(name: &str, text: &str) -> Value {
    let doc = parse(text).unwrap_or_else(|e| panic!("{name}: not valid JSON: {e}"));
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("obskit.metrics.v1"),
        "{name}: wrong or missing schema tag"
    );
    let meta = doc
        .get("meta")
        .and_then(Value::as_obj)
        .unwrap_or_else(|| panic!("{name}: missing meta object"));
    for key in [
        "tool",
        "version",
        "git",
        "effort",
        "kernel.extract",
        "kernel.place",
        "kernel.route",
        "kernel.gbrt",
    ] {
        assert!(
            meta.get(key).and_then(Value::as_str).is_some(),
            "{name}: meta is missing the `{key}` stamp — regenerate the \
             artifact with a full-effort bench run"
        );
    }
    for section in ["counters", "gauges", "histograms"] {
        assert!(
            doc.get(section).and_then(Value::as_obj).is_some(),
            "{name}: missing `{section}` object"
        );
    }
    // Counters must be non-negative integers (the parser enforces number-
    // ness; as_u64 enforces integrality).
    for (k, v) in doc.get("counters").and_then(Value::as_obj).unwrap() {
        assert!(v.as_u64().is_some(), "{name}: counter {k} is not a u64");
    }
    for (k, v) in doc.get("gauges").and_then(Value::as_obj).unwrap() {
        assert!(
            v.as_f64().is_some() || *v == Value::Null,
            "{name}: gauge {k} is not a number"
        );
    }
    doc
}

#[test]
fn every_committed_bench_artifact_is_schema_valid() {
    let root = repo_root();
    let mut checked = 0;
    for (baseline, mirror) in PAIRS {
        for name in [*baseline, *mirror] {
            let path = root.join(name);
            if name == *mirror && !path.exists() {
                // Mirrors regenerate on every bench run and need not all be
                // committed; baselines must be.
                continue;
            }
            let text = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{name}: committed baseline unreadable: {e}"));
            assert_metrics_doc(name, &text);
            checked += 1;
        }
    }
    assert!(checked >= 4, "all four committed baselines must be checked");
}

#[test]
fn full_effort_mirrors_are_byte_identical_to_baselines() {
    let root = repo_root();
    for (baseline, mirror) in PAIRS {
        let mirror_path = root.join(mirror);
        if !mirror_path.exists() {
            continue;
        }
        let mtext = fs::read_to_string(&mirror_path).unwrap();
        let effort = parse(&mtext).ok().and_then(|d| {
            d.get("meta")
                .and_then(|m| m.get("effort"))
                .and_then(|v| v.as_str().map(str::to_string))
        });
        if effort.as_deref() != Some("full") {
            continue; // fast smoke overwrote the mirror locally
        }
        let btext = fs::read_to_string(root.join(baseline)).unwrap();
        assert_eq!(
            mtext, btext,
            "{mirror} and {baseline} must be byte-identical (one writer emits both)"
        );
    }
}

#[test]
fn committed_baselines_pass_the_regression_gate_checks() {
    // The same bands `experiments regress` applies: committed baselines
    // must sit inside every tolerance band, so a bad baseline cannot be
    // committed without this test (and CI's gate) going red.
    let root = repo_root();
    for (baseline, _) in PAIRS {
        let text = fs::read_to_string(root.join(baseline)).unwrap();
        let doc = assert_metrics_doc(baseline, &text);
        // Spot-check the headline band per artifact.
        let gauge = |key: &str| {
            doc.get("gauges")
                .and_then(|g| g.get(key))
                .and_then(Value::as_f64)
        };
        match *baseline {
            "BENCH_place.json" => {
                assert!(
                    gauge("place_bench.total.speedup").unwrap() >= 1.3,
                    "{baseline}"
                )
            }
            "BENCH_route.json" => {
                assert!(
                    gauge("router_bench.fd_opt.speedup").unwrap() >= 1.5,
                    "{baseline}"
                )
            }
            "BENCH_train.json" => {
                for t in ["vertical", "horizontal"] {
                    assert!(
                        gauge(&format!("train_bench.{t}.fit_speedup")).unwrap() >= 1.5,
                        "{baseline}: {t}"
                    );
                }
            }
            "BENCH_pipeline.json" => assert!(
                gauge("pipeline_bench.total.features_speedup").unwrap() >= 1.5,
                "{baseline}"
            ),
            _ => unreachable!(),
        }
    }
}
