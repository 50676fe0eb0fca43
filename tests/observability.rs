//! Observability contract tests.
//!
//! Three guarantees are pinned here: (1) the metrics snapshot attached to
//! a dataset build is **bit-identical for any worker count** — per-design
//! collectors merge in input order, and wall-clock values are quarantined
//! in gauges / `*_ms` histograms that `deterministic_digest` excludes;
//! (2) registry histograms report quantiles within the sketch's 1 %
//! accuracy of the exact ones; and (3) the Chrome trace export keeps the
//! trace-event fields (`name`/`ph`/`ts`/`dur`/`pid`/`tid`) that
//! chrome://tracing and Perfetto require.

use fpga_hls_congestion::obskit;
use fpga_hls_congestion::obskit::QuantileSketch;
use fpga_hls_congestion::prelude::*;
use proptest::prelude::*;

/// A Rosetta suite group (face detection, no directives) plus two small
/// inline designs: enough shape diversity to exercise every stage span
/// without making the 1-vs-8-worker double build slow.
fn modules() -> Vec<Module> {
    let fd = rosetta_gen::suite::face_detection_group(rosetta_gen::Preset::Plain)
        .build()
        .expect("suite generator must compile");
    let small = [
        "int32 f(int32 a[16], int32 k) { int32 s = 0; for (i = 0; i < 16; i++) { s = s + a[i] * k; } return s; }",
        "int32 g(int32 a[32]) { int32 s = 0;\n#pragma HLS unroll factor=4\nfor (i = 0; i < 32; i++) { s = s + a[i]; } return s; }",
    ]
    .iter()
    .enumerate()
    .map(|(i, s)| compile_named(s, &format!("obs{i}")).unwrap());
    std::iter::once(fd).chain(small).collect()
}

#[test]
fn metrics_snapshot_is_bit_identical_across_worker_counts() {
    let modules = modules();
    let run = |workers| {
        CongestionFlow::fast()
            .with_workers(workers)
            .build_dataset_report(&modules)
    };
    let serial = run(1);
    let parallel = run(8);

    let a = serial.obs.metrics.deterministic_digest();
    let b = parallel.obs.metrics.deterministic_digest();
    assert!(!a.is_empty());
    assert_eq!(a, b, "metrics digest must not depend on worker count");

    // The digest covers counters and deterministic histograms; the full
    // counter maps must also agree key-for-key and value-for-value.
    assert_eq!(serial.obs.metrics.counters, parallel.obs.metrics.counters);
    assert_eq!(
        serial.obs.metrics.counters["dataset.designs"],
        modules.len() as u64
    );
    assert!(serial.obs.metrics.counters["dataset.samples"] > 0);
    assert!(serial.obs.metrics.counters.contains_key("route.conns"));

    // The per-pass overflow convergence curve is made of tile counts, not
    // wall-clock, so its whole sketch is part of the deterministic contract.
    let h = &serial.obs.metrics.histograms["route.pass_overflow"];
    let hp = &parallel.obs.metrics.histograms["route.pass_overflow"];
    assert_eq!(h.to_json(), hp.to_json());
}

/// The two designs of the CI observability smoke run.
const OBS_SMOKE: [(&str, &str); 2] = [
    (
        "mac16",
        "int32 f(int32 a[16], int32 k) { int32 s = 0; for (i = 0; i < 16; i++) { s = s + a[i] * k; } return s; }",
    ),
    (
        "unroll32",
        "int32 f(int32 a[32], int32 k) {\n#pragma HLS array_partition variable=a complete\nint32 s = 0;\n#pragma HLS unroll\nfor (i = 0; i < 32; i++) { s = s + a[i] * k; } return s; }",
    ),
];

#[test]
fn registry_quantiles_track_the_exact_quantiles() {
    let flow = CongestionFlow::new();
    let obs = Collector::new();
    let (mut overflow, mut cost) = (Vec::new(), Vec::new());
    for (name, src) in OBS_SMOKE {
        let module = compile_named(src, name).unwrap();
        let (_, imp) = flow.implement_observed(&module, &obs).unwrap();
        overflow.extend(imp.route.pass_overflow.iter().map(|&t| f64::from(t)));
        cost.extend(imp.placement.cost_trajectory);
    }
    let metrics = obs.finish().metrics;
    for (name, mut values) in [
        ("route.pass_overflow", overflow),
        ("place.cost_trajectory", cost),
    ] {
        values.sort_by(f64::total_cmp);
        let h = &metrics.histograms[name];
        assert_eq!(h.count(), values.len() as u64, "{name}");
        let (min, max) = (values[0], values[values.len() - 1]);
        for q in [0.50, 0.90, 0.99] {
            // The exact quantile: the value at rank ceil(q * n).
            let rank = (q * values.len() as f64).ceil() as usize;
            let exact = values[rank - 1];
            let got = h.quantile(q);
            assert!(
                (min..=max).contains(&got),
                "{name} q{q}: {got} outside the observed [{min}, {max}]"
            );
            assert!(
                (got - exact).abs() <= 0.01 * exact.abs(),
                "{name} q{q}: {got} is more than 1 % from the exact {exact}"
            );
        }
    }
}

#[test]
fn chrome_trace_export_keeps_pinned_fields() {
    let modules = modules();
    let report = CongestionFlow::fast().build_dataset_report(&modules[1..2]);
    let trace = obskit::sink::chrome_trace_json(&report.obs.events);

    // Golden schema: the exact fields chrome://tracing / Perfetto parse.
    for field in [
        "\"traceEvents\":[",
        "\"name\":",
        "\"ph\":\"X\"",
        "\"ts\":",
        "\"dur\":",
        "\"pid\":1",
        "\"tid\":",
    ] {
        assert!(trace.contains(field), "missing {field} in trace:\n{trace}");
    }

    // One span per pipeline stage, nested under the per-design span, plus
    // the root dataset_build span.
    for span in [
        "dataset_build",
        "design",
        "hls",
        "place",
        "route",
        "congestion",
        "timing",
        "features",
    ] {
        assert!(
            trace.contains(&format!("\"name\":\"{span}\"")),
            "missing span {span} in trace:\n{trace}"
        );
    }
    assert!(
        trace.contains("\"design\":\"obs0\""),
        "design span must carry the design name:\n{trace}"
    );
    assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    assert_eq!(trace.matches('[').count(), trace.matches(']').count());
}

#[test]
fn fingerprint_and_ledger_are_bit_identical_across_worker_counts() {
    // The quality-sentinel artifacts inherit the worker-count determinism
    // contract: the dataset fingerprint (per-column sketches + matrix
    // digest) and the deterministic half of a ledger record serialize to
    // the same bytes whether the build ran on 1 worker or 8.
    let modules = modules();
    let run = |workers| {
        CongestionFlow::fast()
            .with_workers(workers)
            .build_dataset_report(&modules)
    };
    let serial = run(1);
    let parallel = run(8);

    let fp_serial = serial.dataset.fingerprint();
    let fp_parallel = parallel.dataset.fingerprint();
    assert_eq!(
        fp_serial.matrix_digest, fp_parallel.matrix_digest,
        "matrix digest must not depend on worker count"
    );
    assert_eq!(
        fp_serial.to_json(),
        fp_parallel.to_json(),
        "full fingerprint serialization must be byte-identical"
    );
    // ... and the fingerprint round-trips through its own JSON.
    let reparsed =
        congestion_core::DatasetFingerprint::from_json(&fp_serial.to_json()).expect("round-trip");
    assert_eq!(reparsed.to_json(), fp_serial.to_json());
    let report = congestion_core::drift(&fp_serial, &fp_parallel).expect("same columns");
    assert!(report.identical && !report.severe());

    // Ledger records built from the two runs agree on every deterministic
    // field (counters; kernels; identity stamps). Gauges and stage
    // timings are wall-clock and excluded, same as the metrics digest.
    let record = |report: &congestion_core::pipeline::DatasetBuildReport| {
        let mut rec = obskit::RunRecord::new("test", "dataset", "0.0.0", "deadbeef");
        rec.kernel("extract", "soa");
        rec.absorb_metrics(&report.obs.metrics);
        rec.gauges.clear(); // wall-clock
        rec.hists
            .retain(|k, _| !k.ends_with("_ms") && !k.ends_with("_us") && !k.ends_with("_ns"));
        rec.to_json_line()
    };
    assert_eq!(record(&serial), record(&parallel));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sketch_merge_is_invariant_to_partitioning(
        values in prop::collection::vec(-1e6f64..1e6, 1..200),
        parts in 1usize..9,
    ) {
        // Satellite contract: merging per-worker sketches (chunks merged
        // in input order, the parkit rule) yields bin-for-bin the same
        // sketch as one stream, for any worker count. Quantiles are then
        // bit-identical.
        let mut single = QuantileSketch::new();
        for v in &values {
            single.observe(*v);
        }
        let chunk = values.len().div_ceil(parts);
        let mut merged = QuantileSketch::new();
        for c in values.chunks(chunk.max(1)) {
            let mut unit = QuantileSketch::new();
            for v in c {
                unit.observe(*v);
            }
            merged.merge(&unit);
        }
        prop_assert_eq!(merged.count(), single.count());
        prop_assert_eq!(merged.zero_count(), single.zero_count());
        prop_assert_eq!(
            merged.pos_bins().collect::<Vec<_>>(),
            single.pos_bins().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            merged.neg_bins().collect::<Vec<_>>(),
            single.neg_bins().collect::<Vec<_>>()
        );
        prop_assert_eq!(merged.min(), single.min());
        prop_assert_eq!(merged.max(), single.max());
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            prop_assert_eq!(
                merged.quantile(q).to_bits(),
                single.quantile(q).to_bits(),
                "quantile {} differs", q
            );
        }
    }
}

#[test]
fn metrics_json_export_is_versioned_and_attributable() {
    let report = CongestionFlow::fast().build_dataset_report(&modules()[1..2]);
    let json = obskit::sink::metrics_json(
        &report.obs.metrics,
        &[("tool", "test-harness"), ("version", "0.0.0")],
    );
    assert!(json.contains("\"schema\": \"obskit.metrics.v1\""));
    assert!(json.contains("\"tool\": \"test-harness\""));
    assert!(json.contains("\"dataset.samples\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}
