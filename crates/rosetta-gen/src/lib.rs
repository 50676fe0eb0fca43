//! # rosetta-gen
//!
//! Synthetic MiniHLS versions of the six Rosetta benchmark kernels the paper
//! builds its dataset from (face detection, digit recognition, spam
//! filtering, BNN, 3D rendering, optical flow), with directive presets
//! matching the paper's implementation variants, plus the paper's three
//! benchmark groupings (§IV: Face Detection alone; Digit Recognition + Spam
//! Filtering combined; BNN + 3D Rendering + Optical Flow combined).
//!
//! The generators reproduce the *dataflow shapes* that drive congestion —
//! unrolled multiply-accumulate trees, classifier cascades fanning out from
//! completely partitioned arrays, popcount forests, stencil pipelines — not
//! the pixel-exact algorithms (see DESIGN.md, substitution table).
//!
//! ```
//! use rosetta_gen::face_detection;
//!
//! let bench = face_detection::benchmark(face_detection::FdVariant::Optimized);
//! let module = bench.build()?;
//! assert!(module.total_ops() > 100);
//! # Ok::<(), hls_ir::frontend::CompileError>(())
//! ```

pub mod bnn;
pub mod digit_recognition;
pub mod face_detection;
pub mod optical_flow;
pub mod rendering_3d;
pub mod spam_filter;
pub mod suite;

use hls_ir::directives::Directives;
use hls_ir::frontend::{compile_with_directives, CompileError};
use hls_ir::Module;

/// A generic optimization preset shared by most kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preset {
    /// No directives: rolled loops, unpartitioned arrays.
    Plain,
    /// The paper's optimized configuration: inlining, unrolling,
    /// array partitioning.
    Optimized,
}

/// A ready-to-compile benchmark: MiniHLS source plus a directive overlay.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Design name (used in reports).
    pub name: String,
    /// MiniHLS source text.
    pub source: String,
    /// Directive overlay applied on top of any source pragmas.
    pub directives: Directives,
}

impl Benchmark {
    /// Compile into an IR module with the overlay applied.
    ///
    /// # Errors
    /// Returns a [`CompileError`] if the generated source is invalid (a bug
    /// in the generator).
    pub fn build(&self) -> Result<Module, CompileError> {
        compile_with_directives(&self.source, &self.name, &self.directives)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_compile_in_both_presets() {
        for preset in [Preset::Plain, Preset::Optimized] {
            for bench in [
                digit_recognition::benchmark(preset),
                spam_filter::benchmark(preset),
                bnn::benchmark(preset),
                rendering_3d::benchmark(preset),
                optical_flow::benchmark(preset),
            ] {
                let m = bench.build().unwrap_or_else(|e| {
                    panic!("{} failed to compile ({preset:?}): {e}", bench.name)
                });
                assert!(m.total_ops() > 10, "{} too small", bench.name);
            }
        }
    }

    #[test]
    fn every_kernel_compiles_to_one_module() {
        // Lowering must not depend on hash iteration order: repeated
        // compiles of one source give one module, op for op.
        for (preset, fd) in [
            (Preset::Plain, face_detection::FdVariant::Plain),
            (Preset::Optimized, face_detection::FdVariant::Optimized),
        ] {
            for bench in [
                face_detection::benchmark(fd),
                digit_recognition::benchmark(preset),
                spam_filter::benchmark(preset),
                bnn::benchmark(preset),
                rendering_3d::benchmark(preset),
                optical_flow::benchmark(preset),
            ] {
                let first = bench.build().unwrap();
                for _ in 1..32 {
                    assert!(
                        bench.build().unwrap() == first,
                        "{} ({preset:?}) compiled to more than one module",
                        bench.name
                    );
                }
            }
        }
    }

    #[test]
    fn optimized_presets_generate_more_parallel_ops() {
        for (plain, opt) in [
            (
                digit_recognition::benchmark(Preset::Plain),
                digit_recognition::benchmark(Preset::Optimized),
            ),
            (
                bnn::benchmark(Preset::Plain),
                bnn::benchmark(Preset::Optimized),
            ),
        ] {
            let p = plain.build().unwrap().total_ops();
            let o = opt.build().unwrap().total_ops();
            assert!(o > p, "optimized should unroll: {o} <= {p}");
        }
    }
}
