//! The place-and-route driver: placement → routing → congestion → timing.

use crate::congestion::CongestionMap;
use crate::device::Device;
use crate::place::{place, Placement, PlacerOptions};
use crate::route::{route, RouteResult, RouterOptions};
use crate::timing::{analyze, TimingResult, WireModel};
use hls_synth::{CellId, SynthesizedDesign};
use std::time::{Duration, Instant};

/// PAR options.
#[derive(Debug, Clone, Default)]
pub struct ParOptions {
    /// Placer options.
    pub placer: PlacerOptions,
    /// Router options.
    pub router: RouterOptions,
    /// Wire delay model.
    pub wire_model: WireModel,
}

impl ParOptions {
    /// Reduced effort for tests.
    pub fn fast() -> Self {
        ParOptions {
            placer: PlacerOptions::fast(),
            ..Self::default()
        }
    }

    /// Set the placement seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.placer.seed = seed;
        self
    }
}

/// The result of implementing a synthesized design on a device.
#[derive(Debug, Clone)]
pub struct ImplResult {
    /// Cell placement.
    pub placement: Placement,
    /// Routing usage and per-connection stats.
    pub route: RouteResult,
    /// Per-tile congestion map (the label source).
    pub congestion: CongestionMap,
    /// Timing summary.
    pub timing: TimingResult,
}

impl ImplResult {
    /// Tiles occupied by a cell (its placed footprint).
    pub fn cell_tiles(&self, cell: CellId) -> Vec<(u32, u32)> {
        self.placement.footprint(cell.index()).collect()
    }

    /// Mean (vertical, horizontal) congestion over a cell's footprint.
    pub fn cell_congestion(&self, cell: CellId) -> (f64, f64) {
        let tiles = self.cell_tiles(cell);
        if tiles.is_empty() {
            return (0.0, 0.0);
        }
        let mut v = 0.0;
        let mut h = 0.0;
        let mut n = 0.0;
        for (x, y) in tiles {
            if x < self.congestion.width && y < self.congestion.height {
                v += self.congestion.v_at(x, y);
                h += self.congestion.h_at(x, y);
                n += 1.0;
            }
        }
        if n == 0.0 {
            (0.0, 0.0)
        } else {
            (v / n, h / n)
        }
    }
}

/// Wall-clock spent in each implementation stage of one [`run_par_timed`]
/// call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ParStageTimings {
    /// Simulated-annealing placement.
    pub place: Duration,
    /// Capacity-aware global routing.
    pub route: Duration,
    /// Congestion-map extraction.
    pub congestion: Duration,
    /// Static timing analysis.
    pub timing: Duration,
}

impl ParStageTimings {
    /// Sum of all stage durations.
    pub fn total(&self) -> Duration {
        self.place + self.route + self.congestion + self.timing
    }
}

/// Run the full implementation flow on a synthesized design.
pub fn run_par(design: &SynthesizedDesign, device: &Device, opts: &ParOptions) -> ImplResult {
    run_par_timed(design, device, opts).0
}

/// [`run_par`], also reporting per-stage wall-clock timings.
///
/// All inputs are plain data (`Send + Sync`), so callers may fan this
/// function out across worker threads — one design per worker — which is
/// exactly what `congestion_core::CongestionFlow` does for dataset builds.
pub fn run_par_timed(
    design: &SynthesizedDesign,
    device: &Device,
    opts: &ParOptions,
) -> (ImplResult, ParStageTimings) {
    run_par_inner(design, device, opts, None)
}

/// [`run_par_timed`] recording into an [`obskit::Collector`]: one span per
/// stage (`place`/`route`/`congestion`/`timing`) plus the placer's and
/// router's registry metrics (see [`record_place_metrics`] and
/// [`record_route_metrics`]).
pub fn run_par_obs(
    design: &SynthesizedDesign,
    device: &Device,
    opts: &ParOptions,
    obs: &obskit::Collector,
) -> (ImplResult, ParStageTimings) {
    run_par_inner(design, device, opts, Some(obs))
}

/// Record a finished route's deterministic registry metrics: the
/// [`RouteStats`](crate::route::RouteStats) counters under `route.*` and
/// the per-pass overflowed-tile convergence curve as the
/// `route.pass_overflow` histogram.
pub fn record_route_metrics(obs: &obskit::Collector, route: &crate::route::RouteResult) {
    let s = &route.stats;
    obs.inc("route.expanded_nodes", s.expanded_nodes);
    obs.inc("route.heap_pushes", s.heap_pushes);
    obs.inc("route.rerouted_conns", s.rerouted_conns);
    obs.inc("route.window_expansions", s.window_expansions);
    obs.inc("route.passes_run", s.passes_run as u64);
    obs.inc("route.conns", route.conns.len() as u64);
    for &tiles in &route.pass_overflow {
        obs.observe("route.pass_overflow", tiles as f64);
    }
}

/// Record a finished placement's deterministic registry metrics: the
/// [`PlaceStats`](crate::place::PlaceStats) counters under `place.*` and
/// the sampled annealing cost-descent curve as the `place.cost_trajectory`
/// histogram.
pub fn record_place_metrics(obs: &obskit::Collector, placement: &Placement) {
    let s = &placement.stats;
    obs.inc("place.proposed_moves", s.proposed);
    obs.inc("place.accepted_moves", s.accepted);
    obs.inc("place.bbox_recomputes", s.bbox_recomputes);
    obs.inc("place.cells", placement.pos.len() as u64);
    for &cost in &placement.cost_trajectory {
        obs.observe("place.cost_trajectory", cost);
    }
}

fn run_par_inner(
    design: &SynthesizedDesign,
    device: &Device,
    opts: &ParOptions,
    obs: Option<&obskit::Collector>,
) -> (ImplResult, ParStageTimings) {
    let mut timings = ParStageTimings::default();
    // `Collector::span` needs `&Collector`; for the un-observed path a
    // throwaway collector keeps one code path without measurable cost.
    let scratch;
    let obs = match obs {
        Some(o) => o,
        None => {
            scratch = obskit::Collector::new();
            &scratch
        }
    };

    let start = Instant::now();
    let placement = {
        let _span = obs.span("place");
        place(&design.rtl, device, &opts.placer)
    };
    timings.place = start.elapsed();
    record_place_metrics(obs, &placement);

    let start = Instant::now();
    let route = {
        let _span = obs.span("route");
        route(&design.rtl, &placement, device, &opts.router)
    };
    timings.route = start.elapsed();
    record_route_metrics(obs, &route);

    let start = Instant::now();
    let congestion = {
        let _span = obs.span("congestion");
        CongestionMap::from_route(&route, device)
    };
    timings.congestion = start.elapsed();

    let start = Instant::now();
    let logic_delay = design
        .report
        .top_report()
        .estimated_clock_ns
        .max(design.options.clock_ns * 0.35);
    let timing = {
        let _span = obs.span("timing");
        analyze(
            &route,
            logic_delay,
            design.options.clock_ns,
            &opts.wire_model,
        )
    };
    timings.timing = start.elapsed();

    (
        ImplResult {
            placement,
            route,
            congestion,
            timing,
        },
        timings,
    )
}

// The parallel dataset builder moves these across worker threads; keep the
// guarantee explicit so a future `Rc`/`RefCell` sneaking into the flow types
// fails to compile here rather than at a distant use site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SynthesizedDesign>();
    assert_send_sync::<Device>();
    assert_send_sync::<ParOptions>();
    assert_send_sync::<ImplResult>();
    assert_send_sync::<ParStageTimings>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::frontend::compile;
    use hls_synth::{HlsFlow, HlsOptions};

    fn implement(src: &str) -> (SynthesizedDesign, ImplResult) {
        let m = compile(src).unwrap();
        let d = HlsFlow::new(HlsOptions::default()).run(&m).unwrap();
        let r = run_par(&d, &Device::xc7z020(), &ParOptions::fast());
        (d, r)
    }

    #[test]
    fn par_produces_complete_result() {
        let (d, r) = implement(
            "int32 f(int32 a[16], int32 k) { int32 s = 0; for (i = 0; i < 16; i++) { s = s + a[i] * k; } return s; }",
        );
        assert_eq!(r.placement.pos.len(), d.rtl.cells.len());
        assert!(r.timing.fmax_mhz > 0.0);
        assert!(r.congestion.max_any() >= 0.0);
    }

    #[test]
    fn cell_congestion_readable_for_all_cells() {
        let (d, r) = implement("int32 f(int32 x, int32 y) { return x * y + x; }");
        for c in &d.rtl.cells {
            let (v, h) = r.cell_congestion(c.id);
            assert!(v >= 0.0 && h >= 0.0);
            assert!(v.is_finite() && h.is_finite());
        }
    }

    #[test]
    fn par_is_deterministic() {
        let (_, r1) = implement("int32 f(int32 x, int32 y) { return x * y + x; }");
        let (_, r2) = implement("int32 f(int32 x, int32 y) { return x * y + x; }");
        assert_eq!(r1.placement.pos, r2.placement.pos);
        assert_eq!(r1.timing.critical_path_ns, r2.timing.critical_path_ns);
    }

    #[test]
    fn bigger_parallel_design_is_more_congested() {
        let small = implement(
            "int32 f(int32 a[16]) { int32 s = 0; for (i = 0; i < 16; i++) { s = s + a[i]; } return s; }",
        )
        .1;
        let big = implement(
            "int32 f(int32 a[256], int32 k) {\n#pragma HLS array_partition variable=a cyclic factor=16\nint32 s = 0;\n#pragma HLS unroll factor=16\nfor (i = 0; i < 256; i++) { s = s + a[i] * k; } return s; }",
        )
        .1;
        assert!(
            big.congestion.mean_vertical() + big.congestion.mean_horizontal()
                > small.congestion.mean_vertical() + small.congestion.mean_horizontal(),
            "parallel design should be more congested"
        );
    }
}
