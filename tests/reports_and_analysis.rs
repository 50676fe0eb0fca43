//! Integration coverage for the analysis/reporting layers: utilization
//! reports, dataset statistics, and CSV persistence through the public
//! facade.

use fpga_hls_congestion::prelude::*;

const SRC: &str =
    "int32 f(int32 a[32], int32 k) { int32 s = 0;\n#pragma HLS unroll factor=4\nfor (i = 0; i < 32; i++) { s = s + a[i] * k; } return s; }";

#[test]
fn utilization_report_tracks_the_netlist() {
    let m = compile_named(SRC, "util").unwrap();
    let design = HlsFlow::new(HlsOptions::default()).run(&m).unwrap();
    let flow = CongestionFlow::fast();
    let report = fpga_fabric::UtilizationReport::new(&design.rtl, &flow.device);
    let total = design.rtl.total_resources();
    assert_eq!(report.rows[0].used, total.luts);
    assert_eq!(report.rows[1].used, total.ffs);
    assert_eq!(report.rows[2].used, total.dsps);
    assert_eq!(report.rows[3].used, total.brams);
    assert!(!report.over_capacity(), "small kernel fits the device");
}

#[test]
fn dataset_stats_and_persistence_roundtrip() {
    let flow = CongestionFlow::fast();
    let m = compile_named(SRC, "stats").unwrap();
    let ds = flow.build_dataset(std::slice::from_ref(&m)).unwrap();

    let stats = congestion_core::stats::dataset_stats(&ds, Target::Average);
    assert_eq!(stats.overall.count, ds.len());
    assert!(stats.per_design.contains_key("stats"));
    assert!(stats.overall.max >= stats.overall.mean);
    assert!(
        stats.overall.replica_fraction > 0.0,
        "unrolled kernel produces replica samples"
    );

    // Round-trip through CSV and confirm training still works.
    let path = std::env::temp_dir().join("congestion_integration_roundtrip.csv");
    congestion_core::persist::save(&ds, &path).unwrap();
    let back = congestion_core::persist::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(back.len(), ds.len());
    let model = CongestionPredictor::train(
        ModelKind::Linear,
        Target::Average,
        &back,
        &TrainOptions::fast(),
    );
    let acc = model.evaluate(&back);
    assert!(acc.mae.is_finite());
}
