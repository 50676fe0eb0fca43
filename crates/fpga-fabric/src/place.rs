//! Simulated-annealing placement.
//!
//! Cells are classified by their dominant resource (CLB / DSP / BRAM / IO)
//! and sized in tile-equivalents; a cell's footprint is a vertical window of
//! tiles in one column of the matching kind. Annealing minimizes
//! wire-weighted half-perimeter wirelength plus a quadratic over-density
//! penalty, so heavily connected logic clusters — the congestion hot spots
//! the prediction model must learn — emerge naturally.
//!
//! # The placement kernels
//!
//! Two kernels share one move generator, temperature schedule, and cost
//! model (they draw the identical RNG stream), and differ only in how the
//! wirelength delta of a move is evaluated and where annealing starts:
//!
//! * [`PlaceKernel::DeltaAnneal`] (the default) keeps a cached bounding box
//!   per net with boundary-occupancy counts, so a move's wirelength delta is
//!   O(1) per incident net except when the moved cell was alone on a box
//!   boundary (then that net's box is rescanned — O(degree), bounded by
//!   [`MAX_NET_DEGREE`] and counted in [`PlaceStats::bbox_recomputes`]).
//!   Annealing starts from an analytic wirelength-driven placement: damped
//!   Jacobi iterations pull each cell toward the centroid of its nets
//!   (I/O pads act as fixed anchors), then a per-class legalization snaps
//!   cells into matching columns in desired-(x, y) order.
//! * [`PlaceKernel::ReferenceAnneal`] is the pre-rewrite kernel: full HPWL
//!   recomputation over every incident net twice per move, starting from
//!   the connectivity-ordered column snake. Kept as the reference for
//!   differential tests and old-vs-new benchmarks, the same playbook as
//!   `GbrtKernel::ReferenceExact`.
//!
//! Both kernels use the **exact overlap-aware density delta**: when a
//! move's old and new footprints share tiles (the common case for
//! range-limited late-annealing moves in the same column), the shared rows
//! cancel instead of being double-counted. The pre-rewrite placer evaluated
//! the new footprint against pre-removal loads ("treat approximately"),
//! which let the incrementally-maintained density total drift away from the
//! true cost; the incremental totals now match a from-scratch recompute to
//! float accuracy, and debug builds assert it.

use crate::device::{ColumnKind, Device};
use hls_synth::{CellKind, RtlDesign};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which annealing kernel [`place`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlaceKernel {
    /// Cached per-net bounding boxes with O(1) amortized wirelength deltas
    /// and an analytic wirelength-driven initial placement.
    #[default]
    DeltaAnneal,
    /// The pre-rewrite kernel: full per-net HPWL recomputation per move,
    /// column-snake initial placement. Kept as the differential-test
    /// reference and old-vs-new benchmark baseline.
    ReferenceAnneal,
}

impl PlaceKernel {
    /// Stable display name (used in metrics and kernel stamps).
    pub fn name(&self) -> &'static str {
        match self {
            PlaceKernel::DeltaAnneal => "delta",
            PlaceKernel::ReferenceAnneal => "reference",
        }
    }
}

/// Annealing-effort counters for one [`place`] call. Deterministic for a
/// given design, options, and seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaceStats {
    /// Moves proposed (RNG draws that produced a distinct target).
    pub proposed: u64,
    /// Moves accepted by the Metropolis criterion.
    pub accepted: u64,
    /// Full net rescans to establish a bounding box. The delta kernel
    /// counts its O(degree) fallback (the moved cell was alone on a box
    /// boundary); the reference kernel counts the two full HPWL rescans it
    /// performs per incident net on every proposal, so the two kernels'
    /// rescan effort is directly comparable.
    pub bbox_recomputes: u64,
}

impl PlaceStats {
    /// Accumulate another placement's counters into this one.
    pub fn accumulate(&mut self, other: &PlaceStats) {
        self.proposed += other.proposed;
        self.accepted += other.accepted;
        self.bbox_recomputes += other.bbox_recomputes;
    }
}

impl std::fmt::Display for PlaceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "proposed {} | accepted {} | bbox rescans {}",
            self.proposed, self.accepted, self.bbox_recomputes
        )
    }
}

/// Placement result: per-cell center tile and vertical span.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Center tile `(x, y)` of each cell.
    pub pos: Vec<(u32, u32)>,
    /// Vertical footprint in tiles (span `y .. y + span`), clamped to the
    /// device height.
    pub span: Vec<u32>,
    /// Resource class of each cell.
    pub class: Vec<ColumnKind>,
    /// Final placement cost (incrementally maintained; matches a
    /// from-scratch recompute — see [`recompute_cost`]).
    pub cost: f64,
    /// Device height the placement was made for; footprints clamp to it.
    pub height: u32,
    /// Annealing-effort counters.
    pub stats: PlaceStats,
    /// Total cost sampled at (up to) [`TRAJECTORY_SAMPLES`] evenly spaced
    /// points of the anneal — the cost-descent curve, deterministic per
    /// seed (feeds the obskit `place.cost_trajectory` histogram).
    pub cost_trajectory: Vec<f64>,
}

impl Placement {
    /// The tiles occupied by cell `i`: its vertical footprint window,
    /// clamped to the device height so every named tile exists on the
    /// device (congestion and feature extraction consume these directly).
    pub fn footprint(&self, i: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (x, y) = self.pos[i];
        let end = (y + self.span[i]).min(self.height);
        (y..end).map(move |yy| (x, yy))
    }

    /// FNV-1a checksum of every cell's position and span (golden-test
    /// anchor, mirroring `RouteResult::usage_checksum`).
    pub fn position_checksum(&self) -> u64 {
        let mut h = obskit::Fnv1a::default();
        for (&(x, y), &s) in self.pos.iter().zip(&self.span) {
            for v in [x, y, s] {
                h.bytes(&v.to_le_bytes());
            }
        }
        h.finish()
    }
}

/// Placer options.
#[derive(Debug, Clone)]
pub struct PlacerOptions {
    /// RNG seed (placement is deterministic for a given seed).
    pub seed: u64,
    /// Annealing moves per movable cell.
    pub moves_per_cell: u32,
    /// Over-density penalty weight.
    pub density_weight: f64,
    /// Which annealing kernel to run.
    pub kernel: PlaceKernel,
}

impl Default for PlacerOptions {
    fn default() -> Self {
        PlacerOptions {
            seed: 1,
            moves_per_cell: 60,
            density_weight: 48.0,
            kernel: PlaceKernel::default(),
        }
    }
}

impl PlacerOptions {
    /// Reduced effort for tests.
    pub fn fast() -> Self {
        PlacerOptions {
            moves_per_cell: 8,
            ..Self::default()
        }
    }

    /// This configuration on the given kernel.
    pub fn with_kernel(mut self, kernel: PlaceKernel) -> Self {
        self.kernel = kernel;
        self
    }
}

/// Nets of interest to the placer: a star of cell pins with a wire weight.
#[derive(Debug, Clone)]
struct PlacerNet {
    members: Vec<u32>,
    weight: f64,
}

/// Maximum net degree considered by the incremental cost (huge control nets
/// are ignored — standard placer practice).
const MAX_NET_DEGREE: usize = 64;

/// Points at which the anneal samples its running total cost into
/// [`Placement::cost_trajectory`].
pub const TRAJECTORY_SAMPLES: u64 = 16;

/// Damped Jacobi iterations of the analytic initial placement. Each
/// iteration is O(total pins), far cheaper than annealing moves, so the
/// budget is generous: a better start is what lets the delta kernel run a
/// short cold refinement schedule.
const ANALYTIC_ITERS: usize = 24;

/// Breadth-first order over the cell/net adjacency, restricted to nets of
/// degree ≤ [`MAX_NET_DEGREE`]. Unreached cells (isolated, or only on huge
/// nets) follow in index order, so the result is always a permutation of
/// `0..n`.
fn connectivity_order(rtl: &RtlDesign, n: usize) -> Vec<usize> {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for net in &rtl.nets {
        let mut members: Vec<u32> = Vec::with_capacity(net.sinks.len() + 1);
        members.push(net.driver.0);
        members.extend(net.sinks.iter().map(|s| s.0));
        members.sort_unstable();
        members.dedup();
        if members.len() < 2 || members.len() > MAX_NET_DEGREE {
            continue;
        }
        // Star adjacency around the driver keeps the graph sparse while
        // still pulling each net's cells together in the BFS.
        let hub = members[0];
        for &m in &members[1..] {
            adj[hub as usize].push(m);
            adj[m as usize].push(hub);
        }
    }

    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for root in 0..n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        queue.push_back(root);
        while let Some(c) = queue.pop_front() {
            order.push(c);
            for &m in &adj[c] {
                if !seen[m as usize] {
                    seen[m as usize] = true;
                    queue.push_back(m as usize);
                }
            }
        }
    }
    order
}

/// Everything both kernels need about the design: cell classification and
/// sizing, column pools, and the degree-bounded placer nets.
struct PlacerContext<'a> {
    device: &'a Device,
    rtl: &'a RtlDesign,
    class: Vec<ColumnKind>,
    units: Vec<f64>,
    span: Vec<u32>,
    clb_cols: Vec<u32>,
    dsp_cols: Vec<u32>,
    bram_cols: Vec<u32>,
    io_cols: Vec<u32>,
    nets: Vec<PlacerNet>,
    cell_nets: Vec<Vec<u32>>,
}

impl<'a> PlacerContext<'a> {
    fn build(rtl: &'a RtlDesign, device: &'a Device) -> Self {
        let n = rtl.cells.len();
        let mut class = Vec::with_capacity(n);
        let mut units = Vec::with_capacity(n);
        for c in &rtl.cells {
            let r = c.resources;
            let (k, u) = if matches!(c.kind, CellKind::Port) {
                (ColumnKind::Io, 1.0)
            } else if r.brams > 0 {
                (ColumnKind::Bram, r.brams as f64)
            } else if r.dsps > 0 {
                (ColumnKind::Dsp, r.dsps as f64)
            } else {
                let u = (r.luts as f64 / 8.0).max(r.ffs as f64 / 16.0).max(0.05);
                (ColumnKind::Clb, u)
            };
            class.push(k);
            units.push(u);
        }
        // Spans clamp to the device height: a degenerate cell taller than
        // the device occupies one full column, never tiles past the edge.
        let span: Vec<u32> = units
            .iter()
            .map(|u| (u.ceil() as u32).max(1).min(device.height))
            .collect();

        let mut nets: Vec<PlacerNet> = Vec::with_capacity(rtl.nets.len());
        let mut cell_nets: Vec<Vec<u32>> = vec![Vec::new(); n];
        for net in &rtl.nets {
            let mut members: Vec<u32> = Vec::with_capacity(net.sinks.len() + 1);
            members.push(net.driver.0);
            members.extend(net.sinks.iter().map(|s| s.0));
            members.sort_unstable();
            members.dedup();
            if members.len() < 2 || members.len() > MAX_NET_DEGREE {
                continue;
            }
            let id = nets.len() as u32;
            for &m in &members {
                cell_nets[m as usize].push(id);
            }
            nets.push(PlacerNet {
                members,
                weight: net.width as f64,
            });
        }

        PlacerContext {
            device,
            rtl,
            class,
            units,
            span,
            clb_cols: device.columns_of(ColumnKind::Clb),
            dsp_cols: device.columns_of(ColumnKind::Dsp),
            bram_cols: device.columns_of(ColumnKind::Bram),
            io_cols: device.columns_of(ColumnKind::Io),
            nets,
            cell_nets,
        }
    }

    fn cols_for(&self, k: ColumnKind) -> &[u32] {
        match k {
            ColumnKind::Clb => &self.clb_cols,
            ColumnKind::Dsp => &self.dsp_cols,
            ColumnKind::Bram => &self.bram_cols,
            ColumnKind::Io => &self.io_cols,
        }
    }

    /// Tile indices of a footprint window (clamped to the device height).
    fn footprint(&self, p: (u32, u32), sp: u32) -> impl Iterator<Item = usize> + '_ {
        let device = self.device;
        (p.1..(p.1 + sp).min(device.height)).map(move |y| device.tile_index(p.0, y))
    }

    /// Weighted HPWL of one net under `pos`.
    fn hpwl(&self, net: &PlacerNet, pos: &[(u32, u32)]) -> f64 {
        net.weight * NetBox::from_members(&net.members, pos).hpwl()
    }

    /// Cells the annealer may move: not I/O, and their class has columns.
    fn movable(&self) -> Vec<u32> {
        (0..self.class.len() as u32)
            .filter(|&i| {
                self.class[i as usize] != ColumnKind::Io
                    && !self.cols_for(self.class[i as usize]).is_empty()
            })
            .collect()
    }

    /// The connectivity-ordered column snake (the reference kernel's
    /// starting point).
    fn snake_initial(&self) -> Vec<(u32, u32)> {
        let n = self.class.len();
        let order = connectivity_order(self.rtl, n);
        let mut pos: Vec<(u32, u32)> = vec![(0, 0); n];
        let mut cursor: std::collections::HashMap<ColumnKind, (usize, u32)> =
            std::collections::HashMap::new();
        for i in order {
            let k = self.class[i];
            let cols = self.cols_for(k);
            if cols.is_empty() {
                pos[i] = (self.device.width / 2, self.device.height / 2);
                continue;
            }
            let entry = cursor.entry(k).or_insert((0, 0));
            let sp = self.span[i];
            if entry.1 + sp > self.device.height {
                entry.0 = (entry.0 + 1) % cols.len();
                entry.1 = 0;
            }
            pos[i] = (cols[entry.0], entry.1.min(self.device.height - sp));
            entry.1 += sp;
        }
        pos
    }

    /// Analytic wirelength-driven initial placement (the delta kernel's
    /// starting point): damped Jacobi iterations pull every movable cell
    /// toward the mean position of its net neighbours (I/O pads and
    /// column-less cells stay put and anchor the system), then each class
    /// is legalized into its columns by desired-x order with balanced
    /// column fill and desired-y stacking inside each column.
    fn analytic_initial(&self) -> Vec<(u32, u32)> {
        let snake = self.snake_initial();
        let movable = self.movable();
        if movable.is_empty() || self.nets.is_empty() {
            return snake;
        }
        let mut f: Vec<(f64, f64)> = snake.iter().map(|&(x, y)| (x as f64, y as f64)).collect();
        let mut next = f.clone();
        for _ in 0..ANALYTIC_ITERS {
            for &i in &movable {
                let i = i as usize;
                let mut sx = 0.0;
                let mut sy = 0.0;
                let mut sw = 0.0;
                for &nid in &self.cell_nets[i] {
                    let net = &self.nets[nid as usize];
                    // Centroid of the net's *other* members — the star pull.
                    let mut cx = 0.0;
                    let mut cy = 0.0;
                    for &m in &net.members {
                        cx += f[m as usize].0;
                        cy += f[m as usize].1;
                    }
                    let others = (net.members.len() - 1) as f64;
                    cx = (cx - f[i].0) / others;
                    cy = (cy - f[i].1) / others;
                    sx += net.weight * cx;
                    sy += net.weight * cy;
                    sw += net.weight;
                }
                if sw > 0.0 {
                    next[i] = (0.5 * f[i].0 + 0.5 * sx / sw, 0.5 * f[i].1 + 0.5 * sy / sw);
                }
            }
            std::mem::swap(&mut f, &mut next);
        }

        let mut pos = snake;
        for kind in [ColumnKind::Clb, ColumnKind::Dsp, ColumnKind::Bram] {
            let cols = self.cols_for(kind);
            if cols.is_empty() {
                continue;
            }
            let mut cells: Vec<u32> = movable
                .iter()
                .copied()
                .filter(|&i| self.class[i as usize] == kind)
                .collect();
            if cells.is_empty() {
                continue;
            }
            // Assign columns in desired-x order with balanced fill.
            cells.sort_unstable_by(|&a, &b| {
                let (fa, fb) = (f[a as usize], f[b as usize]);
                fa.0.total_cmp(&fb.0)
                    .then(fa.1.total_cmp(&fb.1))
                    .then(a.cmp(&b))
            });
            let total_span: u64 = cells.iter().map(|&i| self.span[i as usize] as u64).sum();
            let fill = (total_span as f64 / cols.len() as f64).ceil().max(1.0) as u64;
            let mut by_col: Vec<Vec<u32>> = vec![Vec::new(); cols.len()];
            let mut col = 0usize;
            let mut used = 0u64;
            for &i in &cells {
                if used >= fill && col + 1 < cols.len() {
                    col += 1;
                    used = 0;
                }
                by_col[col].push(i);
                used += self.span[i as usize] as u64;
            }
            // Stack each column in desired-y order, centering the stack on
            // the members' mean desired row so vertical positions survive
            // legalization instead of collapsing to the bottom edge.
            for (ci, members) in by_col.iter_mut().enumerate() {
                if members.is_empty() {
                    continue;
                }
                members.sort_unstable_by(|&a, &b| {
                    let (fa, fb) = (f[a as usize], f[b as usize]);
                    fa.1.total_cmp(&fb.1).then(a.cmp(&b))
                });
                let col_span: u32 = members
                    .iter()
                    .map(|&i| self.span[i as usize])
                    .sum::<u32>()
                    .min(self.device.height);
                let mean_y: f64 =
                    members.iter().map(|&i| f[i as usize].1).sum::<f64>() / members.len() as f64;
                let start = (mean_y - col_span as f64 / 2.0)
                    .clamp(0.0, (self.device.height - col_span) as f64)
                    as u32;
                let mut cursor = start;
                for &i in members.iter() {
                    let sp = self.span[i as usize];
                    let y = cursor.min(self.device.height - sp);
                    pos[i as usize] = (cols[ci], y);
                    cursor = cursor.saturating_add(sp).min(self.device.height);
                }
            }
        }
        pos
    }
}

/// Quadratic over-density penalty of one tile's load.
fn density_term(l: f64) -> f64 {
    let over = (l - 1.0).max(0.0);
    over * over
}

/// Exact density-cost delta for moving a cell of the given span and
/// per-tile load from `old` to `new`, evaluated against current `load`.
/// Overlap-aware: rows shared by the two footprints (same column, nearby
/// rows — the common late-annealing move) cancel exactly instead of being
/// double-counted against pre-removal loads.
fn density_delta(
    ctx: &PlacerContext,
    load: &[f64],
    old: (u32, u32),
    new: (u32, u32),
    span: u32,
    per_tile: f64,
) -> f64 {
    let h = ctx.device.height;
    let mut d = 0.0;
    if old.0 == new.0 {
        let (o0, o1) = (old.1, (old.1 + span).min(h));
        let (n0, n1) = (new.1, (new.1 + span).min(h));
        for y in o0..o1 {
            if y >= n0 && y < n1 {
                continue; // occupied before and after — no change
            }
            let t = ctx.device.tile_index(old.0, y);
            d += density_term(load[t] - per_tile) - density_term(load[t]);
        }
        for y in n0..n1 {
            if y >= o0 && y < o1 {
                continue;
            }
            let t = ctx.device.tile_index(new.0, y);
            d += density_term(load[t] + per_tile) - density_term(load[t]);
        }
    } else {
        for t in ctx.footprint(old, span) {
            d += density_term(load[t] - per_tile) - density_term(load[t]);
        }
        for t in ctx.footprint(new, span) {
            d += density_term(load[t] + per_tile) - density_term(load[t]);
        }
    }
    d
}

/// A net's cached bounding box with boundary-occupancy counts: how many
/// members sit exactly on each extreme. A move updates the box in O(1)
/// unless the moved cell was the only member on a receding boundary; then
/// the box is rescanned from the members (O(degree ≤ MAX_NET_DEGREE)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct NetBox {
    min_x: u32,
    max_x: u32,
    min_y: u32,
    max_y: u32,
    n_min_x: u32,
    n_max_x: u32,
    n_min_y: u32,
    n_max_y: u32,
}

impl NetBox {
    fn from_members(members: &[u32], pos: &[(u32, u32)]) -> NetBox {
        let mut b = NetBox {
            min_x: u32::MAX,
            max_x: 0,
            min_y: u32::MAX,
            max_y: 0,
            ..NetBox::default()
        };
        for &m in members {
            let (x, y) = pos[m as usize];
            if x < b.min_x {
                b.min_x = x;
                b.n_min_x = 0;
            }
            if x == b.min_x {
                b.n_min_x += 1;
            }
            if x > b.max_x {
                b.max_x = x;
                b.n_max_x = 0;
            }
            if x == b.max_x {
                b.n_max_x += 1;
            }
            if y < b.min_y {
                b.min_y = y;
                b.n_min_y = 0;
            }
            if y == b.min_y {
                b.n_min_y += 1;
            }
            if y > b.max_y {
                b.max_y = y;
                b.n_max_y = 0;
            }
            if y == b.max_y {
                b.n_max_y += 1;
            }
        }
        b
    }

    fn hpwl(&self) -> f64 {
        ((self.max_x - self.min_x) + (self.max_y - self.min_y)) as f64
    }

    /// The box after one member moves `old → new` on one axis, or `None`
    /// when a boundary recedes and a rescan is required. `(lo, hi, n_lo,
    /// n_hi)` are the axis bounds and their occupancy counts.
    fn axis_update(
        lo: u32,
        hi: u32,
        n_lo: u32,
        n_hi: u32,
        old: u32,
        new: u32,
    ) -> Option<(u32, u32, u32, u32)> {
        if old == new {
            return Some((lo, hi, n_lo, n_hi));
        }
        let (mut lo, mut hi, mut n_lo, mut n_hi) = (lo, hi, n_lo, n_hi);
        // Remove the old coordinate.
        if old == lo {
            n_lo -= 1;
            if n_lo == 0 && new > lo {
                return None; // lower boundary recedes — rescan
            }
        }
        if old == hi {
            n_hi -= 1;
            if n_hi == 0 && new < hi {
                return None;
            }
        }
        // Insert the new coordinate.
        if new < lo {
            lo = new;
            n_lo = 1;
        } else if new == lo {
            n_lo += 1;
        }
        if new > hi {
            hi = new;
            n_hi = 1;
        } else if new == hi {
            n_hi += 1;
        }
        Some((lo, hi, n_lo, n_hi))
    }

    /// The box after one member moves `old → new`. `pos` must already hold
    /// the new position (used by the rescan fallback). Increments
    /// `rescans` when the O(1) update is not possible.
    fn moved(
        &self,
        members: &[u32],
        pos: &[(u32, u32)],
        old: (u32, u32),
        new: (u32, u32),
        rescans: &mut u64,
    ) -> NetBox {
        let x = NetBox::axis_update(
            self.min_x,
            self.max_x,
            self.n_min_x,
            self.n_max_x,
            old.0,
            new.0,
        );
        let y = NetBox::axis_update(
            self.min_y,
            self.max_y,
            self.n_min_y,
            self.n_max_y,
            old.1,
            new.1,
        );
        match (x, y) {
            (Some((min_x, max_x, n_min_x, n_max_x)), Some((min_y, max_y, n_min_y, n_max_y))) => {
                NetBox {
                    min_x,
                    max_x,
                    min_y,
                    max_y,
                    n_min_x,
                    n_max_x,
                    n_min_y,
                    n_max_y,
                }
            }
            _ => {
                *rescans += 1;
                NetBox::from_members(members, pos)
            }
        }
    }
}

/// How a kernel evaluates and commits the wirelength part of a move.
trait WirelenModel {
    /// Weighted-HPWL delta for moving `cell` from `old` to `new`. On
    /// entry `pos[cell] == old`; on return `pos[cell] == new` (the caller
    /// restores it on rejection).
    fn wl_delta(
        &mut self,
        ctx: &PlacerContext,
        pos: &mut [(u32, u32)],
        cell: usize,
        old: (u32, u32),
        new: (u32, u32),
        stats: &mut PlaceStats,
    ) -> f64;

    /// Commit the last evaluated move.
    fn commit(&mut self);

    /// Discard the last evaluated move.
    fn discard(&mut self);
}

/// Reference evaluation: recompute every incident net's HPWL before and
/// after the move.
struct ReferenceWirelen;

impl WirelenModel for ReferenceWirelen {
    fn wl_delta(
        &mut self,
        ctx: &PlacerContext,
        pos: &mut [(u32, u32)],
        cell: usize,
        _old: (u32, u32),
        new: (u32, u32),
        stats: &mut PlaceStats,
    ) -> f64 {
        // Each proposal rescans every incident net twice (before/after) —
        // exactly the work the delta kernel's cached boxes avoid.
        stats.bbox_recomputes += 2 * ctx.cell_nets[cell].len() as u64;
        let mut d = 0.0;
        for &nid in &ctx.cell_nets[cell] {
            d -= ctx.hpwl(&ctx.nets[nid as usize], pos);
        }
        pos[cell] = new;
        for &nid in &ctx.cell_nets[cell] {
            d += ctx.hpwl(&ctx.nets[nid as usize], pos);
        }
        d
    }

    fn commit(&mut self) {}
    fn discard(&mut self) {}
}

/// Delta evaluation: cached per-net boxes, candidate boxes staged in a
/// scratch buffer and written back only on acceptance.
struct DeltaWirelen {
    boxes: Vec<NetBox>,
    staged: Vec<(u32, NetBox)>,
}

impl DeltaWirelen {
    fn new(ctx: &PlacerContext, pos: &[(u32, u32)]) -> Self {
        DeltaWirelen {
            boxes: ctx
                .nets
                .iter()
                .map(|n| NetBox::from_members(&n.members, pos))
                .collect(),
            staged: Vec::new(),
        }
    }
}

impl WirelenModel for DeltaWirelen {
    fn wl_delta(
        &mut self,
        ctx: &PlacerContext,
        pos: &mut [(u32, u32)],
        cell: usize,
        old: (u32, u32),
        new: (u32, u32),
        stats: &mut PlaceStats,
    ) -> f64 {
        pos[cell] = new;
        self.staged.clear();
        let mut d = 0.0;
        for &nid in &ctx.cell_nets[cell] {
            let net = &ctx.nets[nid as usize];
            let cur = self.boxes[nid as usize];
            let next = cur.moved(&net.members, pos, old, new, &mut stats.bbox_recomputes);
            d += net.weight * (next.hpwl() - cur.hpwl());
            self.staged.push((nid, next));
        }
        d
    }

    fn commit(&mut self) {
        for &(nid, b) in &self.staged {
            self.boxes[nid as usize] = b;
        }
    }

    fn discard(&mut self) {}
}

/// State threaded through the shared anneal loop.
struct AnnealState {
    pos: Vec<(u32, u32)>,
    load: Vec<f64>,
    total_wl: f64,
    total_density: f64,
    stats: PlaceStats,
    trajectory: Vec<f64>,
}

/// A kernel's annealing schedule: how many proposals to run, and whether
/// the loop may stop early once the anneal has gone cold.
struct Schedule {
    /// Proposal budget.
    iters: u64,
    /// When true, stop once a full quench window passes with almost no
    /// accepted moves (only meaningful after the schedule is past its
    /// hottest quarter). The reference kernel never exits early — it is
    /// the preserved pre-rewrite behaviour.
    quench_exit: bool,
    /// Initial temperature as a multiple of the starting placement's mean
    /// net wirelength. The reference kernel starts hot (it must melt the
    /// column snake); the delta kernel starts cold, refining the analytic
    /// placement instead of scrambling it.
    temp_scale: f64,
}

/// Proposals per quench-detection window.
const QUENCH_WINDOW: u64 = 1024;

/// Accepted moves per window below which the anneal counts as quenched
/// (≈1.5 % acceptance).
const QUENCH_ACCEPTS: u32 = 16;

/// The annealing loop shared by both kernels: identical move generator,
/// temperature schedule, and RNG stream — only the wirelength model and
/// the [`Schedule`] differ.
fn anneal<M: WirelenModel>(
    ctx: &PlacerContext,
    opts: &PlacerOptions,
    schedule: &Schedule,
    state: &mut AnnealState,
    model: &mut M,
) {
    let movable = ctx.movable();
    if movable.is_empty() {
        return;
    }
    // Column index of each cell within its class's column list, maintained
    // across accepted moves so move generation is O(1) instead of scanning
    // the column list per proposal.
    let mut col_idx: Vec<u32> = state
        .pos
        .iter()
        .enumerate()
        .map(|(i, p)| {
            ctx.cols_for(ctx.class[i])
                .iter()
                .position(|&c| c == p.0)
                .unwrap_or(0) as u32
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let iters = schedule.iters;
    let mut temperature = {
        let avg_wl = (state.total_wl / ctx.nets.len().max(1) as f64).max(1.0);
        avg_wl * schedule.temp_scale
    };
    let cooling = (1e-4f64).powf(1.0 / iters as f64);
    let sample_every = (iters / TRAJECTORY_SAMPLES).max(1);
    let mut window_accepts = 0u32;

    for step in 0..iters {
        if step % sample_every == 0 {
            state
                .trajectory
                .push(state.total_wl + opts.density_weight * state.total_density);
        }
        let frac = 1.0 - step as f64 / iters as f64; // 1 -> 0
        let i = movable[rng.gen_range(0..movable.len())] as usize;
        let k = ctx.class[i];
        let cols = ctx.cols_for(k);
        // Column window around the current column index.
        let cur_col_idx = col_idx[i] as usize;
        let col_window = ((cols.len() as f64 * frac).ceil() as usize).max(1);
        let lo = cur_col_idx.saturating_sub(col_window);
        let hi = (cur_col_idx + col_window + 1).min(cols.len());
        let new_col_idx = rng.gen_range(lo..hi);
        let new_col = cols[new_col_idx];
        // Row window around the current row, clamped so the footprint
        // always fits on the device (spans are ≤ the device height).
        let row_window = ((ctx.device.height as f64 * frac).ceil() as u32).max(2);
        let max_y = ctx.device.height - ctx.span[i];
        let y_lo = state.pos[i].1.saturating_sub(row_window).min(max_y);
        let y_hi = (state.pos[i].1 + row_window + 1).min(max_y + 1);
        let new_y = rng.gen_range(y_lo..y_hi.max(y_lo + 1));
        let old = state.pos[i];
        let new = (new_col, new_y);
        if old == new {
            temperature *= cooling;
            continue;
        }
        state.stats.proposed += 1;

        let d_wl = model.wl_delta(ctx, &mut state.pos, i, old, new, &mut state.stats);
        let per_tile = ctx.units[i] / ctx.span[i] as f64;
        let d_density = density_delta(ctx, &state.load, old, new, ctx.span[i], per_tile);

        let delta = d_wl + opts.density_weight * d_density;
        let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp();
        if accept {
            for t in ctx.footprint(old, ctx.span[i]) {
                state.load[t] -= per_tile;
            }
            for t in ctx.footprint(new, ctx.span[i]) {
                state.load[t] += per_tile;
            }
            state.total_wl += d_wl;
            state.total_density += d_density;
            state.stats.accepted += 1;
            window_accepts += 1;
            col_idx[i] = new_col_idx as u32;
            model.commit();
        } else {
            state.pos[i] = old;
            model.discard();
        }
        temperature *= cooling;

        if schedule.quench_exit && step % QUENCH_WINDOW == QUENCH_WINDOW - 1 {
            if step >= iters / 4 && window_accepts < QUENCH_ACCEPTS {
                break;
            }
            window_accepts = 0;
        }

        // The drift guard: the incrementally-maintained totals must track a
        // from-scratch recompute (this is exactly the invariant the old
        // overlap-approximate density delta violated).
        #[cfg(debug_assertions)]
        if step % 4096 == 0 {
            let full = full_cost(ctx, &state.pos, opts.density_weight);
            let inc = state.total_wl + opts.density_weight * state.total_density;
            debug_assert!(
                (inc - full).abs() <= 1e-6 * full.abs().max(1.0),
                "incremental cost drifted: {inc} vs recomputed {full} at step {step}"
            );
        }
    }
}

/// From-scratch total cost of a candidate placement (wire-weighted HPWL
/// plus the quadratic over-density penalty).
fn full_cost(ctx: &PlacerContext, pos: &[(u32, u32)], density_weight: f64) -> f64 {
    let wl: f64 = ctx.nets.iter().map(|n| ctx.hpwl(n, pos)).sum();
    let mut load = vec![0.0f64; ctx.device.tiles() as usize];
    for (i, &p) in pos.iter().enumerate() {
        let per_tile = ctx.units[i] / ctx.span[i] as f64;
        for t in ctx.footprint(p, ctx.span[i]) {
            load[t] += per_tile;
        }
    }
    wl + density_weight * load.iter().map(|&l| density_term(l)).sum::<f64>()
}

/// Recompute a finished placement's cost from scratch under the same cost
/// model [`place`] maintains incrementally. Differential tests assert the
/// two agree to float accuracy for both kernels.
pub fn recompute_cost(
    rtl: &RtlDesign,
    device: &Device,
    opts: &PlacerOptions,
    placement: &Placement,
) -> f64 {
    let ctx = PlacerContext::build(rtl, device);
    full_cost(&ctx, &placement.pos, opts.density_weight)
}

/// Place an RTL design on a device.
pub fn place(rtl: &RtlDesign, device: &Device, opts: &PlacerOptions) -> Placement {
    let ctx = PlacerContext::build(rtl, device);

    let pos = match opts.kernel {
        PlaceKernel::DeltaAnneal => ctx.analytic_initial(),
        PlaceKernel::ReferenceAnneal => ctx.snake_initial(),
    };

    // Density grid.
    let mut load = vec![0.0f64; device.tiles() as usize];
    for (i, &p) in pos.iter().enumerate() {
        let per_tile = ctx.units[i] / ctx.span[i] as f64;
        for t in ctx.footprint(p, ctx.span[i]) {
            load[t] += per_tile;
        }
    }

    let total_wl: f64 = ctx.nets.iter().map(|n| ctx.hpwl(n, &pos)).sum();
    let total_density: f64 = load.iter().map(|&l| density_term(l)).sum();

    let mut state = AnnealState {
        pos,
        load,
        total_wl,
        total_density,
        stats: PlaceStats::default(),
        trajectory: Vec::new(),
    };

    let n_movable = ctx.movable().len() as u64;
    match opts.kernel {
        PlaceKernel::DeltaAnneal => {
            // The analytic start is already wirelength-driven, so the delta
            // kernel runs a refinement schedule — a quarter of the reference
            // budget — and additionally stops once the anneal quenches.
            let schedule = Schedule {
                iters: (n_movable * opts.moves_per_cell.div_ceil(4).max(1) as u64).max(1),
                quench_exit: true,
                temp_scale: 0.25,
            };
            let mut model = DeltaWirelen::new(&ctx, &state.pos);
            anneal(&ctx, opts, &schedule, &mut state, &mut model);
        }
        PlaceKernel::ReferenceAnneal => {
            let schedule = Schedule {
                iters: (n_movable * opts.moves_per_cell as u64).max(1),
                quench_exit: false,
                temp_scale: 2.0,
            };
            anneal(&ctx, opts, &schedule, &mut state, &mut ReferenceWirelen);
        }
    }

    let cost = state.total_wl + opts.density_weight * state.total_density;
    debug_assert!(
        (cost - full_cost(&ctx, &state.pos, opts.density_weight)).abs()
            <= 1e-6 * cost.abs().max(1.0),
        "final incremental cost drifted from recompute"
    );
    Placement {
        pos: state.pos,
        span: ctx.span,
        class: ctx.class,
        cost,
        height: device.height,
        stats: state.stats,
        cost_trajectory: state.trajectory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::frontend::compile;
    use hls_synth::{HlsFlow, HlsOptions};

    fn place_src(src: &str, opts: &PlacerOptions) -> (RtlDesign, Placement, Device) {
        let m = compile(src).unwrap();
        let d = HlsFlow::new(HlsOptions::default()).run(&m).unwrap();
        let device = Device::xc7z020();
        let p = place(&d.rtl, &device, opts);
        (d.rtl, p, device)
    }

    const SRC: &str =
        "int32 f(int32 a[32], int32 k) { int32 s = 0; for (i = 0; i < 32; i++) { s = s + a[i] * k; } return s; }";

    fn both_kernels() -> [PlacerOptions; 2] {
        [
            PlacerOptions::fast().with_kernel(PlaceKernel::DeltaAnneal),
            PlacerOptions::fast().with_kernel(PlaceKernel::ReferenceAnneal),
        ]
    }

    #[test]
    fn all_cells_inside_device() {
        for opts in both_kernels() {
            let (rtl, p, device) = place_src(SRC, &opts);
            assert_eq!(p.pos.len(), rtl.cells.len());
            for i in 0..rtl.cells.len() {
                let (x, y) = p.pos[i];
                assert!(x < device.width && y < device.height);
                // The whole footprint fits: no clamping is ever exercised
                // for well-formed spans.
                assert!(
                    y + p.span[i] <= device.height,
                    "{:?}: footprint off-device",
                    opts.kernel
                );
            }
        }
    }

    #[test]
    fn cells_sit_in_matching_columns() {
        for opts in both_kernels() {
            let (_, p, device) = place_src(SRC, &opts);
            for i in 0..p.pos.len() {
                let (x, _) = p.pos[i];
                if device.columns_of(p.class[i]).is_empty() {
                    continue;
                }
                assert_eq!(
                    device.column(x),
                    p.class[i],
                    "cell {i} of class {:?} in wrong column",
                    p.class[i]
                );
            }
        }
    }

    #[test]
    fn placement_is_deterministic() {
        for opts in both_kernels() {
            let (_, p1, _) = place_src(SRC, &opts);
            let (_, p2, _) = place_src(SRC, &opts);
            assert_eq!(p1.pos, p2.pos);
            assert_eq!(p1.stats, p2.stats);
            assert_eq!(p1.position_checksum(), p2.position_checksum());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (_, p1, _) = place_src(SRC, &PlacerOptions::fast());
        let mut o = PlacerOptions::fast();
        o.seed = 99;
        let (_, p2, _) = place_src(SRC, &o);
        assert_ne!(p1.pos, p2.pos);
    }

    #[test]
    fn incremental_cost_matches_recompute_for_both_kernels() {
        for opts in both_kernels() {
            let (rtl, p, device) = place_src(SRC, &opts);
            let full = recompute_cost(&rtl, &device, &opts, &p);
            assert!(
                (p.cost - full).abs() <= 1e-6 * full.abs().max(1.0),
                "{:?}: incremental {} vs recomputed {}",
                opts.kernel,
                p.cost,
                full
            );
        }
    }

    #[test]
    fn annealing_improves_over_initial() {
        // More moves should not produce a worse placement than (almost) none.
        let (_, cheap, _) = place_src(
            SRC,
            &PlacerOptions {
                moves_per_cell: 1,
                ..PlacerOptions::default()
            },
        );
        let (_, tuned, _) = place_src(
            SRC,
            &PlacerOptions {
                moves_per_cell: 100,
                ..PlacerOptions::default()
            },
        );
        assert!(
            tuned.cost <= cheap.cost * 1.05,
            "SA should not regress: {} vs {}",
            tuned.cost,
            cheap.cost
        );
    }

    #[test]
    fn footprints_follow_span() {
        for opts in both_kernels() {
            let (_, p, device) = place_src(SRC, &opts);
            for i in 0..p.pos.len() {
                let tiles: Vec<_> = p.footprint(i).collect();
                // The true clamped length (not the tautology the old test
                // asserted): span rows, cut at the device edge.
                let expected = p.span[i].min(device.height.saturating_sub(p.pos[i].1));
                assert_eq!(tiles.len() as u32, expected);
                assert!(tiles.iter().all(|&(x, _)| x == p.pos[i].0));
                assert!(tiles.iter().all(|&(_, y)| y < device.height));
            }
        }
    }

    #[test]
    fn footprint_clamps_to_device_height() {
        // A hand-built placement with an off-device window must clip at the
        // edge rather than naming tiles that do not exist.
        let p = Placement {
            pos: vec![(3, 10)],
            span: vec![8],
            class: vec![ColumnKind::Clb],
            cost: 0.0,
            height: 12,
            stats: PlaceStats::default(),
            cost_trajectory: Vec::new(),
        };
        let tiles: Vec<_> = p.footprint(0).collect();
        assert_eq!(tiles, vec![(3, 10), (3, 11)]);
    }

    #[test]
    fn stats_count_moves() {
        for opts in both_kernels() {
            let (_, p, _) = place_src(SRC, &opts);
            assert!(p.stats.proposed > 0);
            assert!(p.stats.accepted <= p.stats.proposed);
            assert!(!p.cost_trajectory.is_empty());
            if opts.kernel == PlaceKernel::ReferenceAnneal {
                // Two full rescans per incident net per proposal; every
                // proposal touches at least one net on these designs.
                assert!(
                    p.stats.bbox_recomputes >= 2 * p.stats.proposed,
                    "reference rescans unrecorded: {} rescans for {} proposals",
                    p.stats.bbox_recomputes,
                    p.stats.proposed
                );
            }
        }
    }
}
