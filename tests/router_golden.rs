//! Golden tests for the router.
//!
//! The router (an L-shape pass, then Z-shape rip-up of the connections
//! that cross overflowed tiles) must stay **bit-identical** run to run:
//! the checksums below pin its route of the default (delta-kernel)
//! placement, because every congestion label in every dataset depends on
//! them. They were re-recorded at the delta-placer rewrite (better
//! placements route differently).
//!
//! When `usage_checksum` became true FNV-1a (it had multiplied by
//! 2^44 + 0x1b3, not FNV's 2^40 + 0x1b3), one run at `47e20a0` computed
//! both functions over the same routes: each old value equalled the
//! constant then committed, and these are the new ones.

use fpga_fabric::par::{run_par, ParOptions};
use fpga_fabric::Device;
use hls_ir::frontend::compile_named;
use hls_ir::module::Module;
use hls_synth::{HlsFlow, HlsOptions};
use rosetta_gen::face_detection::{benchmark, FdVariant};

/// (name, module, usage checksum, overflowed tiles).
fn corpus() -> Vec<(&'static str, Module, u64, usize)> {
    let src = |s: &str, n: &str| compile_named(s, n).unwrap();
    vec![
        (
            "mac16",
            src(
                "int32 f(int32 a[16], int32 k) { int32 s = 0; for (i = 0; i < 16; i++) { s = s + a[i] * k; } return s; }",
                "mac16",
            ),
            0xfa8f_6dec_5fbf_a324,
            0,
        ),
        (
            "unroll64",
            src(
                "int32 f(int32 a[64], int32 k) {\n#pragma HLS array_partition variable=a complete\nint32 s = 0;\n#pragma HLS unroll\nfor (i = 0; i < 64; i++) { s = s + a[i] * k; } return s; }",
                "unroll64",
            ),
            0xe9b6_ddc1_e949_d125,
            187,
        ),
        (
            "wide256",
            src(
                "int32 f(int32 a[256], int32 k) {\n#pragma HLS array_partition variable=a cyclic factor=16\nint32 s = 0;\n#pragma HLS unroll factor=16\nfor (i = 0; i < 256; i++) { s = s + a[i] * k; } return s; }",
                "wide256",
            ),
            0x7f7e_b9f3_412b_3e56,
            1,
        ),
    ]
}

#[test]
fn default_router_matches_recorded_golden_checksums() {
    let device = Device::xc7z020();
    for (name, module, hash, tiles_over) in corpus() {
        let design = HlsFlow::new(HlsOptions::default()).run(&module).unwrap();
        let r = run_par(&design, &device, &ParOptions::fast());
        assert_eq!(
            r.route.usage_checksum(),
            hash,
            "{name}: routing changed — congestion labels would drift"
        );
        assert_eq!(r.congestion.tiles_over(100.0), tiles_over, "{name}");
    }
}

#[test]
#[ignore = "slow: routes the largest in-tree design"]
fn router_matches_recorded_golden_checksum_for_face_detection() {
    // fd_opt is the most congested in-tree design: the router leaves 2269
    // overflowed tiles.
    let module = benchmark(FdVariant::Optimized).build().unwrap();
    let design = HlsFlow::new(HlsOptions::default()).run(&module).unwrap();
    let r = run_par(&design, &Device::xc7z020(), &ParOptions::fast());
    assert_eq!(
        r.route.usage_checksum(),
        0x0270_9740_345c_4c52,
        "fd_opt: routing changed"
    );
    assert_eq!(r.congestion.tiles_over(100.0), 2269);
}
