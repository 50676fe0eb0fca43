//! # hls-synth
//!
//! High-level synthesis over [`hls_ir`]: operator characterization,
//! resource-constrained list scheduling with operator chaining, functional
//! unit binding with resource sharing, memory banking, RTL netlist
//! generation (datapath + FSM + multiplexers), and the HLS report that feeds
//! the *Global information* feature category of the congestion model.
//!
//! This crate stands in for the Vivado HLS middle/back end in the
//! reproduction of *Zhao et al. (DATE 2019)*.
//!
//! ```
//! use hls_ir::frontend::compile;
//! use hls_synth::flow::{HlsFlow, HlsOptions};
//!
//! let m = compile(
//!     "int32 dot(int32 a[8], int32 b[8]) {\n\
//!      int32 acc = 0;\n\
//!      for (i = 0; i < 8; i++) { acc = acc + a[i] * b[i]; }\n\
//!      return acc; }",
//! )?;
//! let design = HlsFlow::new(HlsOptions::default()).run(&m)?;
//! assert!(design.report.latency_cycles() > 0);
//! assert!(!design.rtl.cells.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod bind;
pub mod charlib;
pub mod datapath;
pub mod flow;
pub mod memory;
pub mod report;
pub mod schedule;

pub use bind::{Binding, FunctionalUnit};
pub use charlib::{CharLib, OperatorCost, Resources};
pub use datapath::{CellId, CellKind, NetId, RtlCell, RtlDesign, RtlNet};
pub use flow::{HlsFlow, HlsOptions, SynthError, SynthesizedDesign};
pub use report::{FunctionReport, HlsReport, MemoryStats, MuxStats};
pub use schedule::Schedule;
