//! Differential test for the two feature-extraction kernels.
//!
//! The SoA kernel (`extract_into`, behind `CongestionDataset::add_design`)
//! and the reference kernel (the original per-node `Vec` allocation path,
//! behind `add_design_reference`) must produce
//! *bitwise*-identical feature matrices — not merely `f64 ==` equal, which
//! would miss `-0.0` vs `+0.0` discrepancies that change the CSV bytes.

use congestion_core::features::feature_names;
use congestion_core::persist::write_csv;
use congestion_core::CongestionDataset;
use fpga_hls_congestion::prelude::*;

/// Run both kernels over the same implemented designs.
fn datasets_for(modules: &[Module]) -> (CongestionDataset, CongestionDataset) {
    let flow = CongestionFlow::fast();
    let mut soa = CongestionDataset::new();
    let mut reference = CongestionDataset::new();
    for module in modules {
        let (design, impl_result) = flow.implement(module).expect("implement");
        soa.add_design(&design, &impl_result, &flow.device)
            .expect("soa extraction");
        reference
            .add_design_reference(&design, &impl_result, &flow.device)
            .expect("reference extraction");
    }
    (soa, reference)
}

/// Bit-pattern equality on every feature of every sample, plus equality of
/// the serialized CSV bytes (the form training artifacts are stored in).
fn assert_bitwise_identical(soa: &CongestionDataset, reference: &CongestionDataset) {
    assert_eq!(soa.len(), reference.len());
    assert!(!soa.is_empty(), "differential corpus produced no samples");
    let names = feature_names();
    for i in 0..soa.len() {
        let (a, b) = (soa.features_of(i), reference.features_of(i));
        assert_eq!(a.len(), b.len());
        for (c, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "sample {i}, feature {c} ({}): soa {x:?} vs reference {y:?}",
                names[c],
            );
        }
    }
    let (mut csv_soa, mut csv_reference) = (Vec::new(), Vec::new());
    write_csv(soa, &mut csv_soa).expect("serialize soa");
    write_csv(reference, &mut csv_reference).expect("serialize reference");
    assert_eq!(csv_soa, csv_reference, "CSV bytes differ between kernels");
}

#[test]
fn kernels_agree_bitwise_on_rosetta_suite() {
    let modules: Vec<Module> = rosetta_gen::suite::groups(rosetta_gen::Preset::Optimized)
        .iter()
        .map(|b| b.build().expect("suite benchmark builds"))
        .collect();
    let (soa, reference) = datasets_for(&modules);
    assert_bitwise_identical(&soa, &reference);
}

#[test]
fn kernels_agree_bitwise_on_sparse_graphs() {
    // Hand-written designs whose graphs contain nodes with empty pred/succ
    // neighborhoods — the shape that once exposed a `-0.0` sum identity in
    // the Reference kernel's empty-iterator `.sum()`.
    let sources = [
        (
            "loner",
            "int32 f(int32 a, int32 b) { int32 x; x = a + b; return x; }",
        ),
        (
            "mac_unrolled",
            "int32 f(int32 a[16], int32 b[16]) {\n\
             #pragma HLS array_partition variable=a complete\n\
             #pragma HLS array_partition variable=b complete\n\
             int32 s; int32 i; s = 0;\n\
             #pragma HLS unroll\n\
             for (i = 0; i < 16; i++) { s = s + a[i] * b[i]; }\n\
             return s; }",
        ),
    ];
    let modules: Vec<Module> = sources
        .iter()
        .map(|(name, src)| compile_named(src, name).expect("compiles"))
        .collect();
    let (soa, reference) = datasets_for(&modules);
    assert_bitwise_identical(&soa, &reference);
}
