//! Property-based tests of the implementation-flow invariants.

use fpga_fabric::congestion::CongestionMap;
use fpga_fabric::device::Device;
use fpga_fabric::par::{run_par, ParOptions};
use fpga_fabric::place::{place, place_reference, recompute_cost, PlacerOptions};
use hls_ir::frontend::compile_named;
use hls_synth::{HlsFlow, HlsOptions};
use proptest::prelude::*;

/// A tiny random MAC-kernel generator: varies array length, unroll factor,
/// and partition factor.
fn kernel() -> impl Strategy<Value = String> {
    (1u32..5, 0u32..3, 1u32..4).prop_map(|(len_pow, unroll_pow, part_pow)| {
        let len = 8 << len_pow;
        let unroll = 1 << unroll_pow;
        let part = 1 << part_pow;
        let mut src = String::new();
        src.push_str(&format!("int32 f(int32 a[{len}], int32 k) {{\n"));
        if part > 1 {
            src.push_str(&format!(
                "#pragma HLS array_partition variable=a cyclic factor={part}\n"
            ));
        }
        src.push_str("int32 s = 0;\n");
        if unroll > 1 {
            src.push_str(&format!("#pragma HLS unroll factor={unroll}\n"));
        }
        src.push_str(&format!(
            "for (i = 0; i < {len}; i++) {{ s = s + a[i] * k; }}\nreturn s;\n}}\n"
        ));
        src
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn par_invariants_hold_for_random_kernels(src in kernel(), seed in 0u64..8) {
        let m = compile_named(&src, "prop").expect("kernel compiles");
        let design = HlsFlow::new(HlsOptions::default()).run(&m).expect("synthesizes");
        let device = Device::xc7z020();
        let opts = ParOptions::fast().with_seed(seed);
        let result = run_par(&design, &device, &opts);

        // Placement: every cell inside the device, in a matching column.
        for i in 0..design.rtl.cells.len() {
            let (x, y) = result.placement.pos[i];
            prop_assert!(x < device.width && y < device.height);
        }

        // Congestion: finite, non-negative, consistent with usage.
        let c = &result.congestion;
        prop_assert_eq!(c.vertical.len(), (device.width * device.height) as usize);
        for v in c.vertical.iter().chain(c.horizontal.iter()) {
            prop_assert!(v.is_finite() && *v >= 0.0);
        }
        prop_assert!(c.max_vertical() >= c.mean_vertical() || c.mean_vertical() == 0.0);
        prop_assert!(c.tiles_over(100.0) <= c.vertical.len());
        prop_assert!(c.tiles_over(50.0) >= c.tiles_over(100.0), "monotone threshold");

        // Timing: consistent identities.
        let t = &result.timing;
        prop_assert!(t.critical_path_ns > 0.0);
        prop_assert!((t.fmax_mhz - 1000.0 / t.critical_path_ns).abs() < 1e-6);
        prop_assert!((t.wns_ns - (design.options.clock_ns - t.critical_path_ns)).abs() < 1e-6);

        // Routing: every connection belongs to a real net.
        for conn in &result.route.conns {
            prop_assert!((conn.net as usize) < design.rtl.nets.len());
            prop_assert!(conn.overflow >= 0.0);
        }
    }

    #[test]
    fn placer_invariants_hold_for_random_kernels(src in kernel(), seed in 0u64..8,
                                                 delta_kernel in any::<bool>()) {
        let m = compile_named(&src, "prop").expect("kernel compiles");
        let design = HlsFlow::new(HlsOptions::default()).run(&m).expect("synthesizes");
        let device = Device::xc7z020();
        let kernel = if delta_kernel { place } else { place_reference };
        let mut opts = PlacerOptions::fast();
        opts.seed = seed;
        let p = kernel(&design.rtl, &device, &opts);

        // The incrementally-maintained cost is the true cost: it matches a
        // from-scratch recompute to 1e-6 relative, for every random move
        // sequence either kernel executes.
        let full = recompute_cost(&design.rtl, &device, &opts, &p);
        prop_assert!(
            (p.cost - full).abs() <= 1e-6 * full.abs().max(1.0),
            "incremental {} vs recomputed {}", p.cost, full
        );

        // Every footprint lies entirely on the device: spans are clamped
        // and move windows never push a cell past the bottom edge.
        for i in 0..p.pos.len() {
            prop_assert!(p.span[i] >= 1 && p.span[i] <= device.height);
            let tiles: Vec<_> = p.footprint(i).collect();
            prop_assert_eq!(tiles.len() as u32, p.span[i], "footprint clipped at edge");
            for (x, y) in tiles {
                prop_assert!(x < device.width && y < device.height);
            }
        }

        // Same seed, same kernel: bit-identical placement.
        let again = kernel(&design.rtl, &device, &opts);
        prop_assert_eq!(&p.pos, &again.pos);
        prop_assert_eq!(p.position_checksum(), again.position_checksum());
        prop_assert_eq!(p.stats, again.stats);
    }

    #[test]
    fn congestion_map_row_profile_is_mean(w in 2u32..10, h in 2u32..10,
                                          vals in prop::collection::vec(0f64..200.0, 4..100)) {
        let n = (w * h) as usize;
        prop_assume!(vals.len() >= n);
        let vertical: Vec<f64> = vals[..n].to_vec();
        let map = CongestionMap {
            width: w,
            height: h,
            vertical: vertical.clone(),
            horizontal: vec![0.0; n],
        };
        let profile = map.row_profile(true);
        prop_assert_eq!(profile.len(), h as usize);
        for (y, row_mean) in profile.iter().enumerate() {
            let expect: f64 = (0..w).map(|x| vertical[(y as u32 * w + x) as usize]).sum::<f64>() / w as f64;
            prop_assert!((row_mean - expect).abs() < 1e-9);
        }
        // The render has one glyph per tile.
        let art = map.render(true);
        prop_assert_eq!(art.lines().count(), h as usize);
        prop_assert!(art.lines().all(|l| l.chars().count() == w as usize));
    }
}
