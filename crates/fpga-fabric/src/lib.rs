//! # fpga-fabric
//!
//! A simulated FPGA implementation flow: a 7-series-like tile-grid device
//! model, simulated-annealing placement, a capacity-aware global router, the
//! per-CLB vertical/horizontal **routing congestion map** (the label source
//! of the paper's prediction model), and static timing (WNS / Fmax).
//!
//! This crate stands in for Vivado place-and-route in the reproduction of
//! *Zhao et al. (DATE 2019)*: the paper's congestion metrics "denote the
//! estimated utilization percentage of routing resources in the vertical and
//! horizontal directions of the tiles on FPGA", which is exactly what the
//! router here produces.
//!
//! ```
//! use hls_ir::frontend::compile;
//! use hls_synth::{HlsFlow, HlsOptions};
//! use fpga_fabric::{par::run_par, device::Device, par::ParOptions};
//!
//! let m = compile("int32 f(int32 x, int32 y) { return x * y + x; }")?;
//! let design = HlsFlow::new(HlsOptions::default()).run(&m)?;
//! let result = run_par(&design, &Device::xc7z020(), &ParOptions::fast());
//! assert!(result.congestion.max_vertical() >= 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod congestion;
pub mod device;
pub mod par;
pub mod place;
pub mod route;
pub mod timing;
pub mod utilization;

pub use congestion::CongestionMap;
pub use device::{ColumnKind, Device};
pub use par::{run_par, ImplResult, ParOptions};
pub use place::{recompute_cost, PlaceStats, Placement, PlacerOptions};
pub use route::{RouteStats, RouterOptions};
pub use timing::TimingResult;
pub use utilization::{RoutingUtilization, UtilizationReport};
