//! Pins every digest that the workspace stores or replays: model-artifact
//! digests, dataset fingerprints, ledger config digests and probabilistic
//! fault decisions. All of them are FNV-1a, and a file written by one build
//! must still be found and trusted by the next.
//!
//! The constants were recorded by running this file against commit
//! `47e20a0`, before the workspace's FNV-1a copies were folded into
//! `obskit::fnv`; the Rosetta GBRT artifact's was recorded at `ee26b56`,
//! and the served reply bytes at `421fc4f`, while cache hits still
//! predicted again. The fault decisions were recorded again when each
//! serve stage came to run once and the attempt left the roll, and the
//! flow config digests each time a field left `ParOptions`, whose `Debug`
//! text they hash. A change that moves any of them invalidates stored
//! artifacts, fingerprints or ledger comparisons, replays a plan file
//! differently, or changes what `congestd` answers, and must say so.

use fpga_hls_congestion::congestion_core::cli::RunOptions;
use fpga_hls_congestion::congestion_core::{
    extract_source, source_digest, CongestionDataset, DatasetFingerprint, Sample, FEATURE_COUNT,
};
use fpga_hls_congestion::hls_ir::{FuncId, OpId};
use fpga_hls_congestion::mlkit::CompiledEnsemble;
use fpga_hls_congestion::obskit;
use fpga_hls_congestion::prelude::*;
use fpga_hls_congestion::rosetta_gen::{
    bnn, digit_recognition, face_detection, optical_flow, rendering_3d, spam_filter, Benchmark,
    Preset,
};
use fpga_hls_congestion::servekit::{
    serve_stages, ModelArtifact, Request, RequestBody, ServeConfig, Server, SourceExtractor,
};
use std::sync::{Arc, OnceLock};

/// The `mac16` design of the CI observability smoke run, without the
/// heredoc's trailing newline.
const MAC16: &str = "int32 f(int32 a[16], int32 k) { int32 s = 0; for (i = 0; i < 16; i++) { s = s + a[i] * k; } return s; }";

#[test]
fn flow_config_digests_are_pinned() {
    assert_eq!(CongestionFlow::new().config_digest(), 0x87df_0700_ec22_20d4);
    assert_eq!(
        CongestionFlow::fast().config_digest(),
        0x701d_30bf_da0d_3236
    );
}

#[test]
fn source_digest_is_pinned() {
    assert_eq!(source_digest("mac16", MAC16), 0xeb62_6a73_8f44_5445);
}

#[test]
fn model_artifact_digest_is_pinned() {
    const LEAF: u32 = u32::MAX;
    let stump = |base: f64| {
        let nodes = vec![(2u32, 1, 2, 0.5), (LEAF, 0, 0, -1.25), (LEAF, 0, 0, 3.75)];
        CompiledEnsemble::from_raw(base, 0.5, vec![0], nodes, 4).expect("valid stump")
    };
    let artifact = ModelArtifact {
        name: "gbrt".into(),
        version: 3,
        feature_count: 4,
        trained_on: "digest pin".into(),
        vertical: stump(10.0),
        horizontal: stump(20.0),
    };
    assert_eq!(artifact.digest(), 0xdea7_2620_b0e5_1bde);
}

/// The six Rosetta kernels without directives: the journey benchmark's
/// corpus.
fn plain_rosetta_kernels() -> Vec<Benchmark> {
    vec![
        face_detection::benchmark(face_detection::FdVariant::Plain),
        digit_recognition::benchmark(Preset::Plain),
        spam_filter::benchmark(Preset::Plain),
        bnn::benchmark(Preset::Plain),
        rendering_3d::benchmark(Preset::Plain),
        optical_flow::benchmark(Preset::Plain),
    ]
}

/// A V/H GBRT artifact as `hls_congest train --model-out` builds one,
/// fitted on [`plain_rosetta_kernels`]: one-worker dataset build, default
/// marginal filtering, an 80/20 split with seed 17 and default training
/// options. Built once and shared by the tests that pin it and serve it.
fn rosetta_gbrt_artifact() -> &'static ModelArtifact {
    static ARTIFACT: OnceLock<ModelArtifact> = OnceLock::new();
    ARTIFACT.get_or_init(|| {
        let modules: Vec<Module> = plain_rosetta_kernels()
            .iter()
            .map(|b| compile_named(&b.source, &b.name).expect("Rosetta kernel compiles"))
            .collect();
        let dataset = CongestionFlow::new()
            .with_workers(1)
            .build_dataset(&modules)
            .expect("Rosetta dataset builds");
        let (train, _) = filter_marginal(&dataset, &Default::default())
            .kept
            .split(0.2, 17);
        let fit = |target| {
            CongestionPredictor::train(ModelKind::Gbrt, target, &train, &TrainOptions::default())
                .compiled_ensemble()
                .cloned()
                .expect("GBRT compiles its ensemble")
        };
        ModelArtifact {
            name: "gbrt".into(),
            version: 1,
            feature_count: FEATURE_COUNT,
            trained_on: "pin".into(),
            vertical: fit(Target::Vertical),
            horizontal: fit(Target::Horizontal),
        }
    })
}

/// Fitted on real features, the Rosetta artifact pins every tree,
/// threshold and leaf value of both fits. Recorded at commit `ee26b56`,
/// before fits stopped building the histograms no split reads.
#[test]
fn rosetta_gbrt_artifact_digest_is_pinned() {
    assert_eq!(rosetta_gbrt_artifact().digest(), 0x4bdf_ac0f_4d76_d37c);
}

/// What `congestd` answers about each Plain Rosetta kernel, byte for
/// byte: the Rosetta artifact served in process, keyed by
/// `source_digest`, with the binary's MiniHLS extractor, `extract_source`. Each kernel is
/// asked twice. The first (miss) replies are pinned with a fixed id and
/// no `info`, and each second (hit) reply must be its miss, byte for
/// byte, apart from `info`.
#[test]
fn served_source_reply_bytes_are_pinned() {
    let mut cfg = ServeConfig::default();
    cfg.gate.expected_features = FEATURE_COUNT;
    cfg.cache_key = Some(Arc::new(|name: &str, text: &str| source_digest(name, text)));
    let extractor: Arc<SourceExtractor> = Arc::new(extract_source);
    let (server, report) =
        Server::start(cfg, Some(rosetta_gbrt_artifact().clone()), Some(extractor))
            .expect("server starts");
    assert!(report.install_error.is_none(), "{report:?}");
    let mut id = 0;
    let mut ask = |b: &Benchmark| {
        id += 1;
        let mut reply = server.call(Request {
            id,
            deadline_ms: None,
            body: RequestBody::Source {
                name: b.name.clone(),
                text: b.source.clone(),
            },
        });
        let cache = reply.info.get("cache").cloned();
        reply.id = 0;
        reply.info.clear();
        (cache, reply.to_json())
    };
    let mut misses = Vec::new();
    for b in &plain_rosetta_kernels() {
        let (cache, miss) = ask(b);
        assert_eq!(cache.as_deref(), Some("miss"), "{}", b.name);
        let (cache, hit) = ask(b);
        assert_eq!(cache.as_deref(), Some("hit"), "{}", b.name);
        assert_eq!(
            hit, miss,
            "{}: a hit answers what its miss answered",
            b.name
        );
        misses.push(miss);
    }
    server.shutdown();
    let parts: Vec<&[u8]> = misses.iter().map(|m| m.as_bytes()).collect();
    assert_eq!(obskit::fnv1a(&parts), 0x1b0d_04fe_2c5c_fc93);
}

#[test]
fn fingerprint_matrix_digest_is_pinned() {
    let mut ds = CongestionDataset::new();
    for i in 0..6u32 {
        let row: Vec<f64> = (0..FEATURE_COUNT)
            .map(|j| f64::from(i) * 0.5 + j as f64 - 7.25)
            .collect();
        let sample = Sample {
            design: format!("d{}", i % 2),
            func: FuncId(0),
            op: OpId(i),
            line: i + 1,
            replica: None,
            vertical: 12.5 * f64::from(i),
            horizontal: 100.0 - f64::from(i),
        };
        ds.push(sample, &row);
    }
    assert_eq!(
        DatasetFingerprint::of(&ds).matrix_digest,
        "16903aba6bd1afa0"
    );
}

#[test]
fn command_digest_is_pinned() {
    let opts = RunOptions::from_args(&["dataset", "a.mhls", "b.mhls", "--workers", "2"])
        .expect("valid argv");
    assert_eq!(opts.command_digest(), 0x4d46_b7ea_6b62_3e26);
}

#[test]
fn probabilistic_fault_decisions_are_pinned() {
    let plan = FaultPlan::new(7).with_rule(FaultRule {
        probability: 0.5,
        ..FaultRule::new("*", serve_stages::PREDICT, FaultKind::Error)
    });
    let fired: Vec<bool> = (0..8)
        .map(|i| {
            plan.fault_for(&format!("req-{i}"), serve_stages::PREDICT)
                .is_some()
        })
        .collect();
    assert_eq!(fired, [true, true, true, false, false, true, false, true]);
}
