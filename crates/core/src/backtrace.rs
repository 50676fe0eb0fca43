//! Back-tracing (paper §III-A1): from per-CLB congestion metrics through
//! placed RTL cells back to IR operations.
//!
//! The RTL netlist records each cell's IR provenance, and placement records
//! each cell's tile footprint; the label of an operation is the mean
//! vertical/horizontal congestion over the CLBs its cells occupy (an
//! operation replicated by unrolling or multi-instance calls averages over
//! all its hardware, matching the paper's per-CLB-to-op linkage).
//!
//! Back-tracing is fallible with a typed error ([`BacktraceError`]) rather
//! than a panic: a provenance/placement mismatch is a per-design data bug
//! that the dataset builder downgrades into that design's failure-taxonomy
//! entry, not a reason to kill a batch.

use fpga_fabric::ImplResult;
use hls_ir::{FuncId, OpId};
use hls_synth::SynthesizedDesign;
use std::collections::HashMap;
use std::fmt;

/// The congestion label of one IR operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpLabel {
    /// Mean vertical congestion (%) over the op's CLBs.
    pub vertical: f64,
    /// Mean horizontal congestion (%).
    pub horizontal: f64,
    /// Number of cells carrying the op.
    pub cells: usize,
}

impl OpLabel {
    /// The paper's "Avg (V, H)" metric.
    pub fn average(&self) -> f64 {
        (self.vertical + self.horizontal) / 2.0
    }
}

/// Typed back-trace failures, feeding the dataset builder's per-design
/// failure taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BacktraceError {
    /// The netlist's op→cell provenance references a cell the placement
    /// never saw — the RTL and placement came from different designs, or a
    /// transform corrupted provenance.
    CellUnplaced {
        /// Offending cell index.
        cell: usize,
        /// Number of cells the placement knows about.
        placed: usize,
    },
}

impl fmt::Display for BacktraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BacktraceError::CellUnplaced { cell, placed } => write!(
                f,
                "backtrace: netlist references cell {cell} but the placement has only {placed} cells"
            ),
        }
    }
}

impl std::error::Error for BacktraceError {}

/// Back-trace congestion labels for every IR op that materialized into
/// hardware. Ops that vanished in RTL (constants, casts) get no label.
///
/// # Errors
/// Returns [`BacktraceError::CellUnplaced`] when op→cell provenance points
/// outside the placement.
pub fn backtrace_labels(
    design: &SynthesizedDesign,
    impl_result: &ImplResult,
) -> Result<HashMap<(FuncId, OpId), OpLabel>, BacktraceError> {
    let placed = impl_result.placement.pos.len();
    let op_cells = design.rtl.op_cells();
    let mut labels = HashMap::with_capacity(op_cells.len());
    for (key, cells) in op_cells {
        let mut v = 0.0;
        let mut h = 0.0;
        let mut n = 0usize;
        for &cell in &cells {
            if cell.index() >= placed {
                return Err(BacktraceError::CellUnplaced {
                    cell: cell.index(),
                    placed,
                });
            }
            let (cv, ch) = impl_result.cell_congestion(cell);
            v += cv;
            h += ch;
            n += 1;
        }
        if n == 0 {
            continue;
        }
        labels.insert(
            key,
            OpLabel {
                vertical: v / n as f64,
                horizontal: h / n as f64,
                cells: n,
            },
        );
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_fabric::{par::run_par, par::ParOptions, Device};
    use hls_ir::frontend::compile;
    use hls_ir::OpKind;
    use hls_synth::{HlsFlow, HlsOptions};
    use std::error::Error;

    type LabelMap = HashMap<(FuncId, OpId), OpLabel>;

    fn labels_for(src: &str) -> Result<(SynthesizedDesign, LabelMap), Box<dyn Error>> {
        let m = compile(src)?;
        let d = HlsFlow::new(HlsOptions::default()).run(&m)?;
        let r = run_par(&d, &Device::xc7z020(), &ParOptions::fast());
        let l = backtrace_labels(&d, &r)?;
        Ok((d, l))
    }

    #[test]
    fn hardware_ops_get_labels() -> Result<(), Box<dyn Error>> {
        let (d, labels) = labels_for(
            "int32 f(int32 a[16], int32 k) { int32 s = 0; for (i = 0; i < 16; i++) { s = s + a[i] * k; } return s; }",
        )?;
        let f = d.module.top_function();
        let mul = f
            .ops
            .iter()
            .find(|o| o.kind == OpKind::Mul)
            .ok_or("no multiplier in IR")?;
        let key = (f.id, mul.id);
        let label = labels.get(&key).ok_or("multiplier must be labeled")?;
        assert!(label.vertical >= 0.0 && label.horizontal >= 0.0);
        assert!(label.cells >= 1);
        assert!(label.average() >= 0.0);
        Ok(())
    }

    #[test]
    fn pure_wiring_ops_get_no_label() -> Result<(), Box<dyn Error>> {
        let (d, labels) = labels_for("int32 f(int32 x) { return x + 1; }")?;
        let f = d.module.top_function();
        let c = f
            .ops
            .iter()
            .find(|o| o.kind == OpKind::Const)
            .ok_or("no const in IR")?;
        assert!(!labels.contains_key(&(f.id, c.id)), "consts have no cells");
        Ok(())
    }

    #[test]
    fn callee_ops_labeled_once_across_instances() -> Result<(), Box<dyn Error>> {
        let (d, labels) = labels_for(
            "int32 g(int32 x) { return x * x; }\nint32 f(int32 x) { return g(x) + g(x + 1); }",
        )?;
        let g = d.module.function_by_name("g").ok_or("no function g")?;
        let mul = g
            .ops
            .iter()
            .find(|o| o.kind == OpKind::Mul)
            .ok_or("no multiplier in g")?;
        let label = labels.get(&(g.id, mul.id)).ok_or("mul labeled")?;
        assert_eq!(label.cells, 2, "two instances average into one label");
        Ok(())
    }

    #[test]
    fn provenance_outside_placement_is_a_typed_error() -> Result<(), Box<dyn Error>> {
        let m = compile("int32 f(int32 x, int32 y) { return x * y + 1; }")?;
        let d = HlsFlow::new(HlsOptions::default()).run(&m)?;
        let mut r = run_par(&d, &Device::xc7z020(), &ParOptions::fast());
        // Corrupt the placement: drop every cell, as if it came from a
        // different (empty) design.
        r.placement.pos.clear();
        r.placement.span.clear();
        let e = backtrace_labels(&d, &r).unwrap_err();
        assert!(matches!(e, BacktraceError::CellUnplaced { placed: 0, .. }));
        assert!(e.to_string().contains("placement"));
        Ok(())
    }
}
