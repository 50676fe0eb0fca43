//! # hls-ir
//!
//! Intermediate representation for a small high-level-synthesis (HLS) flow,
//! together with the **MiniHLS** C-like frontend and the directive-driven IR
//! transforms (function inlining, loop unrolling, dead-code elimination,
//! constant folding).
//!
//! This crate is the substrate that stands in for the Vivado HLS front-end in
//! the reproduction of *Zhao et al., "Machine Learning Based Routing
//! Congestion Prediction in FPGA High-Level Synthesis" (DATE 2019)*. The
//! congestion-prediction pipeline starts from this IR: every operation knows
//! its bitwidth, operands (with the number of wires actually consumed), and
//! its source location, which is what lets predicted congestion be mapped
//! back to lines of source code.
//!
//! ## Quick tour
//!
//! ```
//! use hls_ir::frontend::compile;
//!
//! let src = r#"
//!     int32 dot(int32 a[8], int32 b[8]) {
//!         int32 acc = 0;
//!         #pragma HLS unroll factor=8
//!         for (i = 0; i < 8; i++) {
//!             acc = acc + a[i] * b[i];
//!         }
//!         return acc;
//!     }
//! "#;
//! let module = compile(src)?;
//! let top = module.top_function();
//! assert_eq!(top.name, "dot");
//! assert!(top.ops.len() > 8); // unrolled multiply-accumulate chain
//! # Ok::<(), hls_ir::frontend::CompileError>(())
//! ```

pub mod builder;
pub mod directives;
pub mod frontend;
pub mod function;
pub mod module;
pub mod op;
pub mod printer;
pub mod source;
pub mod transform;
pub mod types;
pub mod verify;

pub use builder::FunctionBuilder;
pub use directives::{Directives, Partition};
pub use function::{ArrayDecl, ArrayId, FuncId, Function, Param, ParamKind, Region};
pub use module::Module;
pub use op::{OpId, OpKind, Operand, Operation, ReplicaTag};
pub use source::{SourceLoc, SourceSpan};
pub use types::IrType;
