//! Differential tests for the placement-kernel rewrite.
//!
//! `place`, the delta-cost kernel, maintains the annealing cost
//! incrementally (cached net bounding boxes, exact overlap-aware density
//! deltas); these tests prove the maintained value is the *true* cost — it
//! matches a from-scratch recompute to 1e-6 relative — for it and for
//! `place_reference`, that its placement is pinned by a golden checksum,
//! and that it never leaves more routed overflow than the reference
//! annealer it replaced.

use fpga_fabric::congestion::CongestionMap;
use fpga_fabric::place::{place, place_reference, recompute_cost, Placement, PlacerOptions};
use fpga_fabric::route::{route, RouterOptions};
use fpga_fabric::Device;
use hls_ir::frontend::compile_named;
use hls_ir::module::Module;
use hls_synth::{HlsFlow, HlsOptions, RtlDesign, SynthesizedDesign};

/// (name, module, golden `place` checksum).
fn corpus() -> Vec<(&'static str, Module, u64)> {
    let src = |s: &str, n: &str| compile_named(s, n).unwrap();
    vec![
        (
            "mac16",
            src(
                "int32 f(int32 a[16], int32 k) { int32 s = 0; for (i = 0; i < 16; i++) { s = s + a[i] * k; } return s; }",
                "mac16",
            ),
            GOLDEN_MAC16,
        ),
        (
            "unroll64",
            src(
                "int32 f(int32 a[64], int32 k) {\n#pragma HLS array_partition variable=a complete\nint32 s = 0;\n#pragma HLS unroll\nfor (i = 0; i < 64; i++) { s = s + a[i] * k; } return s; }",
                "unroll64",
            ),
            GOLDEN_UNROLL64,
        ),
        (
            "wide256",
            src(
                "int32 f(int32 a[256], int32 k) {\n#pragma HLS array_partition variable=a cyclic factor=16\nint32 s = 0;\n#pragma HLS unroll factor=16\nfor (i = 0; i < 256; i++) { s = s + a[i] * k; } return s; }",
                "wide256",
            ),
            GOLDEN_WIDE256,
        ),
    ]
}

/// Golden `Placement::position_checksum()` values of `place` under
/// `ParOptions::fast()` placer options. Recorded at the delta-kernel
/// rewrite; every congestion label downstream depends on placement, so a
/// drift here means datasets change. When the checksum became true FNV-1a
/// (it had multiplied by 2^44 + 0x1b3, not FNV's 2^40 + 0x1b3), one run at
/// `47e20a0` computed both functions over the same placements: each old
/// value equalled the constant then committed, and these are the new ones.
const GOLDEN_MAC16: u64 = 0xb9a8_d2f7_df51_e4c6;
const GOLDEN_UNROLL64: u64 = 0x8ccb_ff65_8b49_e5ef;
const GOLDEN_WIDE256: u64 = 0x8e6b_ee5d_46a8_ca3c;

fn synth(module: &Module) -> SynthesizedDesign {
    HlsFlow::new(HlsOptions::default()).run(module).unwrap()
}

type Kernel = fn(&RtlDesign, &Device, &PlacerOptions) -> Placement;

/// Both placers, by name.
const KERNELS: [(&str, Kernel); 2] = [("place", place), ("place_reference", place_reference)];

#[test]
fn incremental_cost_matches_full_recompute_for_both_kernels() {
    let device = Device::xc7z020();
    for (name, module, _) in corpus() {
        let design = synth(&module);
        for (kernel_name, kernel) in KERNELS {
            for seed in [1u64, 7, 23] {
                let mut opts = PlacerOptions::fast();
                opts.seed = seed;
                let p = kernel(&design.rtl, &device, &opts);
                let full = recompute_cost(&design.rtl, &device, &opts, &p);
                assert!(
                    (p.cost - full).abs() <= 1e-6 * full.abs().max(1.0),
                    "{name} {kernel_name} seed {seed}: incremental cost {} drifted from recompute {}",
                    p.cost,
                    full
                );
            }
        }
    }
}

#[test]
fn default_kernel_matches_recorded_golden_placement_checksums() {
    let device = Device::xc7z020();
    for (name, module, golden) in corpus() {
        let design = synth(&module);
        let p = place(&design.rtl, &device, &PlacerOptions::fast());
        assert_eq!(
            p.position_checksum(),
            golden,
            "{name}: default-kernel placement changed (got {:#018x}) — congestion labels would drift",
            p.position_checksum()
        );
    }
}

#[test]
fn delta_kernel_never_leaves_more_routed_overflow_than_reference() {
    // The no-more-overflow guarantee is stated for the full annealing
    // budget (the conditions `BENCH_place.json` records); at reduced
    // budgets both kernels sit on the route-or-not margin and single-tile
    // noise dominates.
    let device = Device::xc7z020();
    for (name, module, _) in corpus() {
        let design = synth(&module);
        let run = |kernel: Kernel| {
            let placement = kernel(&design.rtl, &device, &PlacerOptions::default());
            let routed = route(&design.rtl, &placement, &device, &RouterOptions::default());
            CongestionMap::from_route(&routed, &device).tiles_over(100.0)
        };
        let delta = run(place);
        let reference = run(place_reference);
        assert!(
            delta <= reference,
            "{name}: delta placement routed to {delta} overflowed tiles, reference to {reference}"
        );
    }
}

#[test]
fn both_kernels_are_deterministic_per_seed() {
    let device = Device::xc7z020();
    let (_, module, _) = corpus().remove(1);
    let design = synth(&module);
    for (name, kernel) in KERNELS {
        let opts = PlacerOptions::fast();
        let a = kernel(&design.rtl, &device, &opts);
        let b = kernel(&design.rtl, &device, &opts);
        assert_eq!(a.pos, b.pos, "{name}");
        assert_eq!(a.cost, b.cost, "{name}");
        assert_eq!(a.stats, b.stats, "{name}");
    }
}

#[test]
fn delta_kernel_spends_less_annealing_effort() {
    // The point of the rewrite: the delta kernel refines an analytic start
    // with a short cold schedule instead of melting a column snake, so its
    // proposal count must be well below the reference budget.
    let device = Device::xc7z020();
    let (_, module, _) = corpus().remove(1);
    let design = synth(&module);
    let delta = place(&design.rtl, &device, &PlacerOptions::fast());
    let reference = place_reference(&design.rtl, &device, &PlacerOptions::fast());
    assert!(
        delta.stats.proposed * 2 < reference.stats.proposed,
        "delta proposed {} vs reference {}",
        delta.stats.proposed,
        reference.stats.proposed
    );
    assert!(delta.stats.bbox_recomputes > 0);
    // The reference kernel rescans every incident net twice per proposal
    // (before/after HPWL), and the delta kernel's cached boxes must make it
    // strictly cheaper per unit of search effort.
    assert!(
        reference.stats.bbox_recomputes >= 2 * reference.stats.proposed,
        "reference rescans unrecorded: {} rescans for {} proposals",
        reference.stats.bbox_recomputes,
        reference.stats.proposed
    );
    assert!(delta.stats.bbox_recomputes < reference.stats.bbox_recomputes);
}
