//! The 302 features in 7 categories (paper Table II).
//!
//! Layout (fixed order, asserted by tests):
//!
//! | slice | category | count |
//! |---|---|---|
//! | `0` | Bitwidth | 1 |
//! | `1..19` | Interconnection | 18 |
//! | `19..119` | Resource (25 × 4 types) | 100 |
//! | `119..121` | Timing | 2 |
//! | `121..193` | #Resource/ΔTcs (18 × 4 types) | 72 |
//! | `193..276` | Operator type (41 one-hot + 41 histogram + 1) | 83 |
//! | `276..302` | Global information | 26 |

mod global;
mod interconnection;
mod optype;
mod resource;
mod resource_dtcs;

use crate::graph::{Csr, DepGraph};
use fpga_fabric::Device;
use hls_ir::Function;
use hls_synth::{CharLib, HlsReport, Resources, Schedule, SynthesizedDesign};

/// Total number of features (the paper's 302).
pub const FEATURE_COUNT: usize = 302;

/// Which feature-extraction kernel fills the rows.
///
/// Both kernels produce bitwise-identical feature vectors (pinned by the
/// differential suite in `tests/extract_differential.rs`); they differ only
/// in how the work is laid out. The same new-kernel/reference-kernel idiom
/// as the router (`MazeKernel`), GBRT (`GbrtKernel`), and placer
/// (`PlaceKernel`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExtractKernel {
    /// Batched structure-of-arrays path: `extract_into` writes straight
    /// into a row of the dataset's flat feature matrix, reading 2-hop
    /// neighborhoods from CSR slices — zero allocations per node.
    #[default]
    Soa,
    /// The original per-node path allocating one `Vec<f64>` per sample,
    /// kept as the differential-test reference.
    Reference,
}

impl ExtractKernel {
    /// Display name (used in metrics and kernel stamps).
    pub fn name(&self) -> &'static str {
        match self {
            ExtractKernel::Soa => "soa",
            ExtractKernel::Reference => "reference",
        }
    }
}

/// Feature categories (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FeatureCategory {
    /// Bitwidth of the operation.
    Bitwidth,
    /// Fan-in/out, neighbor counts, max-wire shares.
    Interconnection,
    /// Resource usage and utilization ratios (per resource type).
    Resource,
    /// Delay and latency.
    Timing,
    /// Resource quantities divided by control-state distance.
    ResourcePerDtcs,
    /// Operation kind one-hot and neighbor kind histogram.
    OperatorType,
    /// Function/design-level statistics.
    Global,
}

impl FeatureCategory {
    /// All categories in layout order.
    pub const ALL: [FeatureCategory; 7] = [
        FeatureCategory::Bitwidth,
        FeatureCategory::Interconnection,
        FeatureCategory::Resource,
        FeatureCategory::Timing,
        FeatureCategory::ResourcePerDtcs,
        FeatureCategory::OperatorType,
        FeatureCategory::Global,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            FeatureCategory::Bitwidth => "Bitwidth",
            FeatureCategory::Interconnection => "Interconnection",
            FeatureCategory::Resource => "Resource",
            FeatureCategory::Timing => "Timing",
            FeatureCategory::ResourcePerDtcs => "#Resource/dTcs",
            FeatureCategory::OperatorType => "Operator Type",
            FeatureCategory::Global => "Global Information",
        }
    }

    /// The index range of this category in the feature vector.
    pub fn range(&self) -> std::ops::Range<usize> {
        match self {
            FeatureCategory::Bitwidth => 0..1,
            FeatureCategory::Interconnection => 1..19,
            FeatureCategory::Resource => 19..119,
            FeatureCategory::Timing => 119..121,
            FeatureCategory::ResourcePerDtcs => 121..193,
            FeatureCategory::OperatorType => 193..276,
            FeatureCategory::Global => 276..302,
        }
    }

    /// The category owning feature index `i`.
    ///
    /// # Panics
    /// Panics if `i >= FEATURE_COUNT`.
    pub fn of_index(i: usize) -> FeatureCategory {
        for c in FeatureCategory::ALL {
            if c.range().contains(&i) {
                return c;
            }
        }
        panic!("feature index {i} out of range");
    }
}

/// Everything needed to extract features for the nodes of one function.
pub struct ExtractCtx<'a> {
    /// The dependency graph.
    pub graph: &'a DepGraph,
    /// The function.
    pub func: &'a Function,
    /// Its schedule.
    pub sched: &'a Schedule,
    /// Characterization library.
    pub lib: &'a CharLib,
    /// HLS report (Fop + Ftop global features).
    pub report: &'a HlsReport,
    /// This function's id.
    pub func_id: hls_ir::FuncId,
    /// Device totals for utilization ratios.
    pub device_totals: Resources,
    /// Per-node resources (unit counted once for merged nodes).
    pub node_res: Vec<Resources>,
    /// Per-node (delay ns, latency cycles).
    pub node_timing: Vec<(f64, f64)>,
    /// Per-node (start, end) control states.
    pub node_states: Vec<(u32, u32)>,
    /// Per-node 2-hop predecessor sets (deduplicated, sorted), one CSR row
    /// per node.
    pub preds2: Csr,
    /// Two-hop successors, same layout.
    pub succs2: Csr,
    /// The 26 global features — node-independent, computed once per
    /// function and copied into every row.
    pub global_row: Vec<f64>,
}

impl<'a> ExtractCtx<'a> {
    /// Precompute per-node quantities for a function of a synthesized design.
    pub fn new(
        graph: &'a DepGraph,
        design: &'a SynthesizedDesign,
        func_id: hls_ir::FuncId,
        device: &Device,
    ) -> ExtractCtx<'a> {
        let func = design.module.function(func_id);
        let sched = &design.schedules[&func_id];
        let lib = &design.lib;
        let n = graph.len();

        let mut node_res = vec![Resources::ZERO; n];
        let mut node_timing = vec![(0.0, 0.0); n];
        let mut node_states = vec![(0u32, 0u32); n];
        for (i, node) in graph.nodes.iter().enumerate() {
            if node.is_port {
                continue;
            }
            // Shared units count their hardware once (first op).
            let first = node.ops[0];
            let cost = lib.cost_of_op(func, func.op(first));
            node_res[i] = cost.resources;
            node_timing[i] = (cost.delay_ns, cost.latency as f64);
            let start = node
                .ops
                .iter()
                .map(|o| sched.start[o.index()])
                .min()
                .unwrap_or(0);
            let end = node
                .ops
                .iter()
                .map(|o| sched.end[o.index()])
                .max()
                .unwrap_or(0);
            node_states[i] = (start, end);
        }

        // 2-hop neighbor sets, flattened into CSR. One scratch vector is
        // reused across all nodes instead of one allocation per node.
        let mut preds2 = Csr::with_capacity(n, 0);
        let mut succs2 = Csr::with_capacity(n, 0);
        let mut scratch: Vec<usize> = Vec::new();
        for i in 0..n {
            scratch.clear();
            scratch.extend(graph.preds(i));
            for j in graph.preds(i) {
                scratch.extend(graph.preds(j));
            }
            scratch.sort_unstable();
            scratch.dedup();
            scratch.retain(|&x| x != i);
            preds2.push_row(&scratch);
            scratch.clear();
            scratch.extend(graph.succs(i));
            for j in graph.succs(i) {
                scratch.extend(graph.succs(j));
            }
            scratch.sort_unstable();
            scratch.dedup();
            scratch.retain(|&x| x != i);
            succs2.push_row(&scratch);
        }

        let mut global_row = Vec::with_capacity(global::COUNT);
        global::compute(&design.report, func_id, &mut global_row);

        let totals = device.totals();
        ExtractCtx {
            graph,
            func,
            sched,
            lib,
            report: &design.report,
            func_id,
            device_totals: Resources::new(totals.luts, totals.ffs, totals.dsps, totals.brams),
            node_res,
            node_timing,
            node_states,
            preds2,
            succs2,
            global_row,
        }
    }

    /// Control-state distance between producer node `p` and consumer `s`
    /// (the paper's ΔTcs, at least 1).
    pub fn delta_tcs(&self, p: usize, s: usize) -> f64 {
        let end_p = self.node_states[p].1;
        let start_s = self.node_states[s].0;
        (start_s.abs_diff(end_p)).max(1) as f64
    }

    /// Extract the full 302-feature vector for `node`.
    pub fn extract(&self, node: usize) -> Vec<f64> {
        let mut v = Vec::with_capacity(FEATURE_COUNT);
        // Bitwidth (1).
        v.push(self.graph.nodes[node].bits as f64);
        let mark = v.len();
        interconnection::extract(self, node, &mut v);
        debug_assert_eq!(v.len() - mark, interconnection::COUNT);
        let mark = v.len();
        resource::extract(self, node, &mut v);
        debug_assert_eq!(v.len() - mark, resource::COUNT);
        // Timing (2).
        let (delay, lat) = self.node_timing[node];
        v.push(delay);
        v.push(lat);
        let mark = v.len();
        resource_dtcs::extract(self, node, &mut v);
        debug_assert_eq!(v.len() - mark, resource_dtcs::COUNT);
        let mark = v.len();
        optype::extract(self, node, &mut v);
        debug_assert_eq!(v.len() - mark, optype::COUNT);
        let mark = v.len();
        global::extract(self, node, &mut v);
        debug_assert_eq!(v.len() - mark, global::COUNT);
        debug_assert_eq!(v.len(), FEATURE_COUNT);
        v
    }

    /// Extract the full 302-feature vector for `node` directly into `row`
    /// — the SoA kernel. Bitwise-identical to [`ExtractCtx::extract`] but
    /// allocation-free: the category extractors write into fixed column
    /// slices of the row, 2-hop neighborhoods come from CSR slices, and
    /// the node-independent global block is a straight copy of the
    /// precomputed `global_row`.
    ///
    /// # Panics
    /// Panics if `row.len() != FEATURE_COUNT`.
    pub fn extract_into(&self, node: usize, row: &mut [f64]) {
        assert_eq!(row.len(), FEATURE_COUNT, "row length mismatch");
        use FeatureCategory as C;
        row.fill(0.0);
        row[0] = self.graph.nodes[node].bits as f64;
        interconnection::extract_into(self, node, &mut row[C::Interconnection.range()]);
        resource::extract_into(self, node, &mut row[C::Resource.range()]);
        let (delay, lat) = self.node_timing[node];
        let t = C::Timing.range().start;
        row[t] = delay;
        row[t + 1] = lat;
        resource_dtcs::extract_into(self, node, &mut row[C::ResourcePerDtcs.range()]);
        optype::extract_into(self, node, &mut row[C::OperatorType.range()]);
        row[C::Global.range()].copy_from_slice(&self.global_row);
    }
}

/// Human-readable names of all 302 features, aligned with the vector layout.
pub fn feature_names() -> Vec<String> {
    let mut names = Vec::with_capacity(FEATURE_COUNT);
    names.push("bitwidth".to_string());
    interconnection::push_names(&mut names);
    resource::push_names(&mut names);
    names.push("delay_ns".into());
    names.push("latency_cycles".into());
    resource_dtcs::push_names(&mut names);
    optype::push_names(&mut names);
    global::push_names(&mut names);
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_adds_to_302() {
        let mut total = 0;
        let mut cursor = 0;
        for c in FeatureCategory::ALL {
            let r = c.range();
            assert_eq!(r.start, cursor, "category {c:?} misaligned");
            cursor = r.end;
            total += r.len();
        }
        assert_eq!(total, FEATURE_COUNT);
        assert_eq!(FEATURE_COUNT, 302);
    }

    #[test]
    fn category_counts_match_design_doc() {
        use FeatureCategory as C;
        assert_eq!(C::Bitwidth.range().len(), 1);
        assert_eq!(C::Interconnection.range().len(), interconnection::COUNT);
        assert_eq!(C::Resource.range().len(), resource::COUNT);
        assert_eq!(C::Timing.range().len(), 2);
        assert_eq!(C::ResourcePerDtcs.range().len(), resource_dtcs::COUNT);
        assert_eq!(C::OperatorType.range().len(), optype::COUNT);
        assert_eq!(C::Global.range().len(), global::COUNT);
        assert_eq!(resource::PER_TYPE, 25);
        assert_eq!(resource_dtcs::PER_TYPE, 18);
    }

    #[test]
    fn of_index_roundtrips() {
        for i in 0..FEATURE_COUNT {
            let c = FeatureCategory::of_index(i);
            assert!(c.range().contains(&i));
        }
    }

    #[test]
    fn names_cover_every_feature() {
        let names = feature_names();
        assert_eq!(names.len(), FEATURE_COUNT);
        let unique: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), FEATURE_COUNT, "names must be unique");
    }
}
