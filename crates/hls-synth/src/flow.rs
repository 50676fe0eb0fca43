//! The end-to-end HLS flow: verify → schedule → bind → netlist → report.

use crate::bind::{bind_function, Binding};
use crate::charlib::CharLib;
use crate::datapath::{generate_netlist, FunctionSynth, RtlDesign};
use crate::report::{build_report, HlsReport};
use crate::schedule::{schedule_function, Schedule, SchedulerOptions};
use hls_ir::{FuncId, Module};
use std::collections::HashMap;
use std::fmt;

/// HLS flow options.
#[derive(Debug, Clone)]
pub struct HlsOptions {
    /// Target clock period in ns (the paper targets 100 MHz = 10 ns).
    pub clock_ns: f64,
    /// Clock uncertainty in ns (Vivado HLS default: 12.5 % of the period).
    pub uncertainty_ns: f64,
}

impl Default for HlsOptions {
    fn default() -> Self {
        HlsOptions {
            clock_ns: 10.0,
            uncertainty_ns: 1.25,
        }
    }
}

/// Errors raised by the synthesis flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// The input module failed IR verification.
    InvalidIr(String),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::InvalidIr(m) => write!(f, "invalid IR: {m}"),
        }
    }
}

impl std::error::Error for SynthError {}

/// Everything the downstream implementation flow (and the congestion
/// predictor) needs about a synthesized design.
#[derive(Debug)]
pub struct SynthesizedDesign {
    /// The synthesized module (owned copy).
    pub module: Module,
    /// Per-function schedules.
    pub schedules: HashMap<FuncId, Schedule>,
    /// Per-function bindings.
    pub bindings: HashMap<FuncId, Binding>,
    /// Flattened RTL netlist.
    pub rtl: RtlDesign,
    /// HLS report (global features).
    pub report: HlsReport,
    /// Characterization library used.
    pub lib: CharLib,
    /// Flow options used.
    pub options: HlsOptions,
}

impl SynthesizedDesign {
    /// The schedule of the top function.
    pub fn top_schedule(&self) -> &Schedule {
        &self.schedules[&self.module.top]
    }

    /// The binding of the top function.
    pub fn top_binding(&self) -> &Binding {
        &self.bindings[&self.module.top]
    }
}

/// The HLS flow driver.
#[derive(Debug, Clone, Default)]
pub struct HlsFlow {
    options: HlsOptions,
    lib: CharLib,
}

impl HlsFlow {
    /// A flow with the given options and the default Zynq-7000
    /// characterization library.
    pub fn new(options: HlsOptions) -> Self {
        HlsFlow {
            options,
            lib: CharLib::zynq7(),
        }
    }

    /// Override the characterization library.
    pub fn with_lib(mut self, lib: CharLib) -> Self {
        self.lib = lib;
        self
    }

    /// Run the flow on a module.
    ///
    /// # Errors
    /// Returns [`SynthError::InvalidIr`] if the module fails verification.
    pub fn run(&self, module: &Module) -> Result<SynthesizedDesign, SynthError> {
        hls_ir::verify::verify_module(module).map_err(|e| SynthError::InvalidIr(e.to_string()))?;

        let sched_opts = SchedulerOptions {
            clock_ns: self.options.clock_ns,
            uncertainty_ns: self.options.uncertainty_ns,
        };

        let mut schedules: HashMap<FuncId, Schedule> = HashMap::new();
        let mut bindings: HashMap<FuncId, Binding> = HashMap::new();
        let mut latencies: HashMap<FuncId, u64> = HashMap::new();
        for fid in module.bottom_up_order() {
            let f = module.function(fid);
            let sched = schedule_function(f, &self.lib, &sched_opts, &latencies);
            latencies.insert(fid, sched.latency_cycles);
            let binding = bind_function(f, &sched);
            bindings.insert(fid, binding);
            schedules.insert(fid, sched);
        }
        // Unreachable functions still need entries (netlist gen indexes by id).
        for f in &module.functions {
            if let std::collections::hash_map::Entry::Vacant(e) = schedules.entry(f.id) {
                let sched = schedule_function(f, &self.lib, &sched_opts, &latencies);
                let binding = bind_function(f, &sched);
                e.insert(sched);
                bindings.insert(f.id, binding);
            }
        }

        let mut synth: HashMap<FuncId, FunctionSynth> = HashMap::new();
        for (&fid, sched) in &schedules {
            synth.insert(
                fid,
                FunctionSynth {
                    schedule: sched.clone(),
                    binding: bindings[&fid].clone(),
                },
            );
        }
        let rtl = generate_netlist(module, &synth, &self.lib);
        let report = build_report(
            module,
            &schedules,
            &bindings,
            &self.lib,
            self.options.clock_ns,
            self.options.uncertainty_ns,
        );

        Ok(SynthesizedDesign {
            module: module.clone(),
            schedules,
            bindings,
            rtl,
            report,
            lib: self.lib.clone(),
            options: self.options.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::frontend::compile;

    #[test]
    fn flow_runs_end_to_end() {
        let m = compile(
            "int32 f(int32 a[32], int32 k) { int32 s = 0; for (i = 0; i < 32; i++) { s = s + a[i] * k; } return s; }",
        )
        .unwrap();
        let d = HlsFlow::new(HlsOptions::default()).run(&m).unwrap();
        assert!(d.report.latency_cycles() >= 32);
        assert!(d.rtl.total_resources().total() > 0);
        assert!(!d.rtl.op_cells().is_empty());
    }

    #[test]
    fn unrolled_version_uses_more_resources_less_time() {
        let rolled = compile(
            "int32 f(int32 a[32], int32 k) {\n#pragma HLS array_partition variable=a complete\nint32 s = 0; for (i = 0; i < 32; i++) { s = s + a[i] * k; } return s; }",
        )
        .unwrap();
        let unrolled = compile(
            "int32 f(int32 a[32], int32 k) {\n#pragma HLS array_partition variable=a complete\nint32 s = 0;\n#pragma HLS unroll\nfor (i = 0; i < 32; i++) { s = s + a[i] * k; } return s; }",
        )
        .unwrap();
        let flow = HlsFlow::new(HlsOptions::default());
        let dr = flow.run(&rolled).unwrap();
        let du = flow.run(&unrolled).unwrap();
        assert!(
            du.report.latency_cycles() < dr.report.latency_cycles(),
            "unrolled faster: {} vs {}",
            du.report.latency_cycles(),
            dr.report.latency_cycles()
        );
        assert!(
            du.report.top_report().resources.dsps > dr.report.top_report().resources.dsps,
            "unrolled uses more multipliers"
        );
    }

    #[test]
    fn invalid_ir_rejected() {
        use hls_ir::{FuncId, Function, Module, OpId, OpKind, Operation};
        let mut m = Module::new("bad");
        let mut f = Function::new(FuncId(0), "f");
        // Op in arena but not in body.
        f.push_op(Operation::new(OpId(0), OpKind::Add, hls_ir::IrType::int(8)));
        m.push_function(f);
        assert!(HlsFlow::new(HlsOptions::default()).run(&m).is_err());
    }
}
