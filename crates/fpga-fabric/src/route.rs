//! Capacity-aware global routing.
//!
//! Every net is routed as a star of driver→sink connections on the tile
//! grid. Pass 1 picks the cheaper of the two L-shapes under the current
//! track usage; refinement passes rip up only the connections that cross
//! overflowed tiles and reroute them — Z-shape candidates by default, or a
//! windowed A* maze search when [`RouterOptions::maze`] is set. Usage is
//! **wire accurate**: a 32-bit bus consumes 32 tracks in every tile it
//! crosses — this is what makes wide, high-fan-out structures (the paper's
//! congested classifier reductions) overload regions of the device.
//!
//! # The maze kernel
//!
//! The maze search is a proper routing engine rather than a plain Dijkstra
//! over the whole grid:
//!
//! * **A\* with an admissible heuristic** — remaining Manhattan distance ×
//!   the minimum possible edge cost. Every edge costs at least 1.0 (the
//!   base distance term), so the heuristic never overestimates and the
//!   search provably returns a minimum-cost path.
//! * **Bounded search windows** — the search runs inside the connection's
//!   bounding box expanded by [`RouterOptions::window_margin`] tiles. If
//!   the best path inside the window still crosses overflowed tiles, the
//!   window grows (×4 margin) and the search retries, up to the full grid.
//! * **A reusable [`RouterArena`]** — `dist` / `prev` arrays are
//!   generation-stamped, so per-connection setup is a single counter bump
//!   instead of an O(width × height) clear, and no allocation happens
//!   after the first connection warms the arena up.
//! * **A monotone bucket queue** — edge costs are quantized to integers
//!   (1/64 cost units), and because the A* heuristic is consistent, popped
//!   keys never decrease; a forward-scanning bucket array replaces the
//!   binary heap (O(1) push/pop instead of O(log n)).
//! * **Negotiated congestion (PathFinder-style)** — after every maze
//!   refinement pass, each overflowed tile's history counter is bumped,
//!   and history is added to the maze edge cost. Nets negotiate: a tile
//!   that stays overflowed becomes increasingly expensive until enough
//!   nets move away.
//!
//! The pre-change kernel (full-grid Dijkstra on a binary heap, fresh
//! arrays per connection) is kept as [`MazeKernel::ReferenceDijkstra`]: it
//! shares the quantized cost model, so property tests can assert the A*
//! kernel returns paths of exactly the same total cost, and benches can
//! measure the speedup on real designs.

use crate::device::Device;
use crate::place::Placement;
use hls_synth::RtlDesign;

/// One routed driver→sink connection.
#[derive(Debug, Clone, Copy)]
pub struct ConnRoute {
    /// Net index in the RTL design.
    pub net: u32,
    /// Routed length in tiles.
    pub len: u32,
    /// Sum over crossed tiles of their overflow ratio at final state.
    pub overflow: f64,
}

/// Search-effort counters for one [`route`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Nodes expanded (popped and processed) by the maze kernels.
    pub expanded_nodes: u64,
    /// Entries pushed into the maze priority queue (bucket or binary heap).
    pub heap_pushes: u64,
    /// Connections ripped up and rerouted across all refinement passes.
    pub rerouted_conns: u64,
    /// A* search-window enlargements (overflow not resolvable in-window).
    pub window_expansions: u64,
    /// Refinement passes actually executed (passes stop early once the
    /// grid has no overflowed tile).
    pub passes_run: u32,
}

impl RouteStats {
    /// Accumulate another route's counters into this one.
    pub fn accumulate(&mut self, other: &RouteStats) {
        self.expanded_nodes += other.expanded_nodes;
        self.heap_pushes += other.heap_pushes;
        self.rerouted_conns += other.rerouted_conns;
        self.window_expansions += other.window_expansions;
        self.passes_run += other.passes_run;
    }
}

impl std::fmt::Display for RouteStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "expanded {} | pushes {} | rerouted {} | window growths {} | passes {}",
            self.expanded_nodes,
            self.heap_pushes,
            self.rerouted_conns,
            self.window_expansions,
            self.passes_run
        )
    }
}

/// Router output: per-tile track usage plus per-connection stats.
#[derive(Debug, Clone)]
pub struct RouteResult {
    /// Horizontal track usage per tile.
    pub h_usage: Vec<u32>,
    /// Vertical track usage per tile.
    pub v_usage: Vec<u32>,
    /// All routed connections.
    pub conns: Vec<ConnRoute>,
    /// Device width (tiles).
    pub width: u32,
    /// Device height (tiles).
    pub height: u32,
    /// Search-effort counters for this route.
    pub stats: RouteStats,
    /// Overflowed-tile count after the initial pass (index 0) and after
    /// each executed refinement pass — the router's convergence curve.
    /// Deterministic for a given design/options, so it feeds the obskit
    /// `route.pass_overflow` histogram.
    pub pass_overflow: Vec<u32>,
}

impl RouteResult {
    /// FNV-1a checksum of the final per-tile usage (golden-test anchor).
    pub fn usage_checksum(&self) -> u64 {
        let mut h = obskit::Fnv1a::default();
        for v in self.h_usage.iter().chain(self.v_usage.iter()) {
            h.bytes(&v.to_le_bytes());
        }
        h.finish()
    }
}

/// Which search kernel maze refinement uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MazeKernel {
    /// Windowed A* over the reusable arena with a monotone bucket queue.
    #[default]
    AStar,
    /// The pre-change kernel: full-grid Dijkstra on a binary heap with
    /// freshly allocated `dist`/`prev` per connection. Kept as the
    /// reference for equivalence tests and old-vs-new benchmarks.
    ReferenceDijkstra,
}

impl MazeKernel {
    /// Canonical metrics name (the bench `meta` kernel stamp).
    pub fn name(&self) -> &'static str {
        match self {
            MazeKernel::AStar => "astar",
            MazeKernel::ReferenceDijkstra => "reference",
        }
    }
}

/// Router options.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Number of rip-up/re-route refinement passes after the initial pass.
    pub refine_passes: u32,
    /// Use congestion-aware maze routing instead of Z-shape candidates
    /// when re-routing overflowed connections. Slower but finds arbitrary
    /// detours.
    pub maze: bool,
    /// Which maze search kernel to run (ignored unless `maze`).
    pub kernel: MazeKernel,
    /// Initial A* search-window margin around a connection's bounding box,
    /// in tiles. The window expands (×4) when overflow cannot be resolved
    /// inside it.
    pub window_margin: u32,
    /// Maximum number of window expansions per connection before the best
    /// in-window path is accepted even if it still crosses overflowed
    /// tiles (history negotiation resolves those over later passes).
    pub window_growth_limit: u32,
    /// Weight of the PathFinder-style history term in the maze edge cost.
    /// Each refinement pass adds 1 to the history of every tile still
    /// overflowed, so persistent hotspots get progressively costlier.
    pub history_weight: f64,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            refine_passes: 2,
            maze: false,
            kernel: MazeKernel::AStar,
            window_margin: 4,
            window_growth_limit: 1,
            history_weight: 1.0,
        }
    }
}

impl RouterOptions {
    /// The maze-routing configuration used by the routing ablation.
    pub fn with_maze(passes: u32) -> Self {
        RouterOptions {
            refine_passes: passes,
            maze: true,
            ..Default::default()
        }
    }

    /// Maze routing on the pre-change reference kernel (full-grid
    /// Dijkstra, binary heap) — for old-vs-new comparisons.
    pub fn with_reference_maze(passes: u32) -> Self {
        RouterOptions {
            kernel: MazeKernel::ReferenceDijkstra,
            ..Self::with_maze(passes)
        }
    }
}

/// A connection endpoint pair.
#[derive(Debug, Clone, Copy)]
struct Conn {
    net: u32,
    from: (u32, u32),
    to: (u32, u32),
    width: u32,
}

/// Route a placed design.
pub fn route(
    rtl: &RtlDesign,
    placement: &Placement,
    device: &Device,
    opts: &RouterOptions,
) -> RouteResult {
    let mut arena = RouterArena::new();
    route_with_arena(rtl, placement, device, opts, &mut arena)
}

/// [`route`], reusing a caller-owned [`RouterArena`] so consecutive
/// designs on the same thread share the search arrays (zero allocation
/// after the first warm-up).
pub fn route_with_arena(
    rtl: &RtlDesign,
    placement: &Placement,
    device: &Device,
    opts: &RouterOptions,
    arena: &mut RouterArena,
) -> RouteResult {
    let tiles = device.tiles() as usize;
    let mut grid = Grid::new(tiles, device.width, device.h_tracks, device.v_tracks);
    let mut stats = RouteStats::default();

    // Build connections.
    let mut conns: Vec<Conn> = Vec::new();
    for net in &rtl.nets {
        let from = placement.pos[net.driver.index()];
        for sink in &net.sinks {
            let to = placement.pos[sink.index()];
            if from == to {
                continue;
            }
            conns.push(Conn {
                net: net.id.0,
                from,
                to,
                width: net.width as u32,
            });
        }
    }

    // Pass 1: cheaper L-shape.
    let mut paths: Vec<Path> = conns
        .iter()
        .map(|c| {
            let p = best_l_shape(c, &grid);
            grid.apply(&p, c.width, 1);
            p
        })
        .collect();

    let mut pass_overflow = vec![grid.overflowed_tiles()];

    // Refinement: incremental rip-up of connections crossing overflowed
    // tiles. Stops early once the grid is overflow-free — uncongested
    // designs pay nothing for extra configured passes.
    for _ in 0..opts.refine_passes {
        if !grid.any_overflow() {
            break;
        }
        stats.passes_run += 1;
        for (i, c) in conns.iter().enumerate() {
            let cur_over = grid.path_overflow(&paths[i]);
            if cur_over <= 0.0 {
                continue;
            }
            grid.apply(&paths[i], c.width, -1);
            stats.rerouted_conns += 1;
            let mut best = best_l_shape(c, &grid);
            let mut best_cost = grid.path_cost(&best, c.width);
            for cand in z_shapes(c, device) {
                let cost = grid.path_cost(&cand, c.width);
                if cost < best_cost {
                    best_cost = cost;
                    best = cand;
                }
            }
            if opts.maze {
                let cand = match opts.kernel {
                    MazeKernel::AStar => {
                        maze_route_windowed(c, &grid, device, opts, cur_over, arena, &mut stats)
                    }
                    MazeKernel::ReferenceDijkstra => {
                        maze_route_dijkstra(c, &grid, device, opts.history_weight, &mut stats)
                    }
                };
                if let Some(cand) = cand {
                    let cost = grid.path_cost(&cand, c.width);
                    if cost < best_cost {
                        best = cand;
                    }
                }
            }
            grid.apply(&best, c.width, 1);
            paths[i] = best;
        }
        if opts.maze {
            // Negotiated congestion: tiles still overflowed after this
            // pass get costlier for the next one.
            grid.bump_history();
        }
        pass_overflow.push(grid.overflowed_tiles());
    }

    // Final stats.
    let out_conns = conns
        .iter()
        .zip(&paths)
        .map(|(c, p)| ConnRoute {
            net: c.net,
            len: p.len(),
            overflow: grid.path_overflow(p),
        })
        .collect();

    RouteResult {
        h_usage: grid.h_usage,
        v_usage: grid.v_usage,
        conns: out_conns,
        width: device.width,
        height: device.height,
        stats,
        pass_overflow,
    }
}

/// A rectilinear path: an ordered list of corner points.
///
/// A zero-length path (coincident endpoints) is a single point; it crosses
/// no tile and consumes no tracks.
#[derive(Debug, Clone)]
struct Path {
    points: Vec<(u32, u32)>,
}

impl Path {
    fn len(&self) -> u32 {
        self.points
            .windows(2)
            .map(|w| {
                let (x1, y1) = w[0];
                let (x2, y2) = w[1];
                x1.abs_diff(x2) + y1.abs_diff(y2)
            })
            .sum()
    }
}

/// Edge costs are quantized to 1/64 cost units so the maze kernels can use
/// integer keys (exact comparisons, bucket-queue friendly).
const COST_SCALE: f64 = 64.0;

/// Quantized cost of the cheapest possible edge (base distance term 1.0).
/// This is the per-tile value of the admissible A* heuristic.
const MIN_STEP_Q: u64 = COST_SCALE as u64;

struct Grid {
    h_usage: Vec<u32>,
    v_usage: Vec<u32>,
    /// PathFinder history: passes a tile spent overflowed, per direction.
    h_hist: Vec<u32>,
    v_hist: Vec<u32>,
    width: u32,
    h_cap: u32,
    v_cap: u32,
}

impl Grid {
    fn new(tiles: usize, width: u32, h_cap: u32, v_cap: u32) -> Grid {
        Grid {
            h_usage: vec![0; tiles],
            v_usage: vec![0; tiles],
            h_hist: vec![0; tiles],
            v_hist: vec![0; tiles],
            width,
            h_cap,
            v_cap,
        }
    }

    fn idx(&self, x: u32, y: u32) -> usize {
        (y * self.width + x) as usize
    }

    /// Visit every (tile, horizontal?) step of a path.
    fn for_each_step(&self, p: &Path, mut f: impl FnMut(usize, bool)) {
        for w in p.points.windows(2) {
            let (x1, y1) = w[0];
            let (x2, y2) = w[1];
            if y1 == y2 {
                let (a, b) = (x1.min(x2), x1.max(x2));
                for x in a..b {
                    f(self.idx(x, y1), true);
                }
            } else {
                let (a, b) = (y1.min(y2), y1.max(y2));
                for y in a..b {
                    f(self.idx(x1, y), false);
                }
            }
        }
    }

    fn apply(&mut self, p: &Path, width: u32, sign: i64) {
        let mut updates: Vec<(usize, bool)> = Vec::new();
        self.for_each_step(p, |t, horiz| updates.push((t, horiz)));
        for (t, horiz) in updates {
            let u = if horiz {
                &mut self.h_usage[t]
            } else {
                &mut self.v_usage[t]
            };
            *u = (*u as i64 + sign * width as i64).max(0) as u32;
        }
    }

    /// Base (history-free) cost of one step leaving `tile` in a direction.
    fn step_cost(&self, tile: usize, horiz: bool, width: u32) -> f64 {
        let (u, cap) = if horiz {
            (self.h_usage[tile], self.h_cap)
        } else {
            (self.v_usage[tile], self.v_cap)
        };
        let after = (u + width) as f64 / cap as f64;
        // Base distance cost plus a steep overflow penalty.
        1.0 + if after > 1.0 {
            (after - 1.0) * 20.0
        } else {
            after
        }
    }

    /// Quantized maze-edge cost: base cost plus the negotiated-congestion
    /// history term, in 1/64 cost units. Shared by both maze kernels so
    /// their path costs are exactly comparable.
    fn step_cost_q(&self, tile: usize, horiz: bool, width: u32, history_weight: f64) -> u64 {
        let hist = if horiz {
            self.h_hist[tile]
        } else {
            self.v_hist[tile]
        } as f64;
        ((self.step_cost(tile, horiz, width) + history_weight * hist) * COST_SCALE).round() as u64
    }

    /// Congestion-aware cost of adding `width` wires along `p`.
    fn path_cost(&self, p: &Path, width: u32) -> f64 {
        let mut cost = 0.0;
        self.for_each_step(p, |t, horiz| {
            cost += self.step_cost(t, horiz, width);
        });
        cost
    }

    /// Quantized maze cost of `p` (the objective the maze kernels minimize).
    #[cfg(test)]
    fn path_cost_q(&self, p: &Path, width: u32, history_weight: f64) -> u64 {
        let mut cost = 0;
        self.for_each_step(p, |t, horiz| {
            cost += self.step_cost_q(t, horiz, width, history_weight);
        });
        cost
    }

    /// Total overflow ratio along a path (0 if uncongested).
    fn path_overflow(&self, p: &Path) -> f64 {
        let mut over = 0.0;
        self.for_each_step(p, |t, horiz| {
            let (u, cap) = if horiz {
                (self.h_usage[t], self.h_cap)
            } else {
                (self.v_usage[t], self.v_cap)
            };
            let r = u as f64 / cap as f64;
            if r > 1.0 {
                over += r - 1.0;
            }
        });
        over
    }

    /// True when any tile is over capacity in either direction.
    fn any_overflow(&self) -> bool {
        self.h_usage.iter().any(|&u| u > self.h_cap) || self.v_usage.iter().any(|&u| u > self.v_cap)
    }

    /// Tiles currently over capacity in either direction (each tile
    /// counted once — same definition as `RoutingUtilization`).
    fn overflowed_tiles(&self) -> u32 {
        self.h_usage
            .iter()
            .zip(&self.v_usage)
            .filter(|&(&h, &v)| h > self.h_cap || v > self.v_cap)
            .count() as u32
    }

    /// Bump the history counter of every tile currently over capacity.
    fn bump_history(&mut self) {
        for (u, h) in self.h_usage.iter().zip(self.h_hist.iter_mut()) {
            if *u > self.h_cap {
                *h += 1;
            }
        }
        for (u, h) in self.v_usage.iter().zip(self.v_hist.iter_mut()) {
            if *u > self.v_cap {
                *h += 1;
            }
        }
    }
}

fn best_l_shape(c: &Conn, grid: &Grid) -> Path {
    let (x1, y1) = c.from;
    let (x2, y2) = c.to;
    let a = Path {
        points: vec![(x1, y1), (x2, y1), (x2, y2)],
    };
    let b = Path {
        points: vec![(x1, y1), (x1, y2), (x2, y2)],
    };
    if grid.path_cost(&a, c.width) <= grid.path_cost(&b, c.width) {
        a
    } else {
        b
    }
}

/// Candidate Z-shaped detours for a connection.
fn z_shapes(c: &Conn, device: &Device) -> Vec<Path> {
    let (x1, y1) = c.from;
    let (x2, y2) = c.to;
    let mut out = Vec::new();
    // Horizontal-vertical-horizontal via intermediate columns.
    for frac in [1, 3] {
        let xm = (x1 * (4 - frac) + x2 * frac) / 4;
        if xm != x1 && xm != x2 {
            out.push(Path {
                points: vec![(x1, y1), (xm, y1), (xm, y2), (x2, y2)],
            });
        }
        let ym = (y1 * (4 - frac) + y2 * frac) / 4;
        if ym != y1 && ym != y2 {
            out.push(Path {
                points: vec![(x1, y1), (x1, ym), (x2, ym), (x2, y2)],
            });
        }
    }
    // Detours outside the bounding box.
    let y_lo = y1.min(y2).saturating_sub(4);
    let y_hi = (y1.max(y2) + 4).min(device.height - 1);
    out.push(Path {
        points: vec![(x1, y1), (x1, y_lo), (x2, y_lo), (x2, y2)],
    });
    out.push(Path {
        points: vec![(x1, y1), (x1, y_hi), (x2, y_hi), (x2, y2)],
    });
    out
}

/// An inclusive rectangular search window on the tile grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    x0: u32,
    y0: u32,
    x1: u32,
    y1: u32,
}

impl Window {
    /// The connection's bounding box expanded by `margin`, clamped to the
    /// device.
    fn around(c: &Conn, margin: u32, device: &Device) -> Window {
        let (x_lo, x_hi) = (c.from.0.min(c.to.0), c.from.0.max(c.to.0));
        let (y_lo, y_hi) = (c.from.1.min(c.to.1), c.from.1.max(c.to.1));
        Window {
            x0: x_lo.saturating_sub(margin),
            y0: y_lo.saturating_sub(margin),
            x1: (x_hi + margin).min(device.width - 1),
            y1: (y_hi + margin).min(device.height - 1),
        }
    }

    fn full(device: &Device) -> Window {
        Window {
            x0: 0,
            y0: 0,
            x1: device.width - 1,
            y1: device.height - 1,
        }
    }

    fn contains(&self, x: u32, y: u32) -> bool {
        (self.x0..=self.x1).contains(&x) && (self.y0..=self.y1).contains(&y)
    }
}

/// Reusable search state shared by every A* invocation of a [`route`] call
/// (and across calls via [`route_with_arena`]).
///
/// `dist`/`prev` entries are valid only where `stamp` equals the current
/// generation, so starting a new search is a counter bump, not an O(tiles)
/// clear. The bucket queue keeps its per-bucket allocations between
/// searches; only the buckets actually touched are cleared.
#[derive(Debug, Default)]
pub struct RouterArena {
    dist: Vec<u64>,
    prev: Vec<u32>,
    stamp: Vec<u32>,
    generation: u32,
    buckets: Vec<Vec<u32>>,
    touched: Vec<u32>,
    cursor: usize,
}

impl RouterArena {
    /// An empty arena; arrays grow on first use and are then reused.
    pub fn new() -> RouterArena {
        RouterArena::default()
    }

    /// Start a new search over `tiles` nodes.
    fn begin(&mut self, tiles: usize) {
        if self.dist.len() < tiles {
            self.dist.resize(tiles, 0);
            self.prev.resize(tiles, u32::MAX);
            self.stamp.resize(tiles, 0);
        }
        self.generation = match self.generation.checked_add(1) {
            Some(g) => g,
            None => {
                self.stamp.fill(0);
                1
            }
        };
        for b in self.touched.drain(..) {
            self.buckets[b as usize].clear();
        }
        self.cursor = 0;
    }

    fn is_fresh(&self, tile: usize) -> bool {
        self.stamp[tile] == self.generation
    }

    fn g(&self, tile: usize) -> u64 {
        self.dist[tile]
    }

    fn set(&mut self, tile: usize, g: u64, prev: u32) {
        self.dist[tile] = g;
        self.prev[tile] = prev;
        self.stamp[tile] = self.generation;
    }

    /// Push `tile` with priority key `key` (monotone: keys never drop
    /// below the last popped key, which the consistent heuristic
    /// guarantees).
    fn push(&mut self, key: u64, tile: u32) {
        let key = key as usize;
        if key >= self.buckets.len() {
            self.buckets.resize_with(key + 1, Vec::new);
        }
        if self.buckets[key].is_empty() {
            self.touched.push(key as u32);
        }
        self.buckets[key].push(tile);
    }

    /// Pop the smallest-key entry, scanning forward from the cursor.
    fn pop(&mut self) -> Option<(u64, u32)> {
        while self.cursor < self.buckets.len() {
            if let Some(tile) = self.buckets[self.cursor].pop() {
                return Some((self.cursor as u64, tile));
            }
            self.cursor += 1;
        }
        None
    }
}

/// Windowed A* with bounded window expansion. `prev_overflow` is the
/// overflow of the path just ripped up: the in-window result is accepted
/// when it is overflow-free **or strictly improves on it** (a wider
/// search could help more, but history negotiation across passes is far
/// cheaper than re-searching). Only when the window failed to improve the
/// connection does the margin grow (×4), at most
/// [`RouterOptions::window_growth_limit`] times.
fn maze_route_windowed(
    c: &Conn,
    grid: &Grid,
    device: &Device,
    opts: &RouterOptions,
    prev_overflow: f64,
    arena: &mut RouterArena,
    stats: &mut RouteStats,
) -> Option<Path> {
    let full = Window::full(device);
    let mut margin = opts.window_margin.max(1);
    let mut growths = 0;
    loop {
        let win = Window::around(c, margin, device);
        let found = maze_route_astar(c, grid, device, &win, arena, opts.history_weight, stats);
        let done = match &found {
            Some(p) => {
                let over = grid.path_overflow(p);
                win == full || growths >= opts.window_growth_limit || over < prev_overflow
            }
            None => win == full,
        };
        if done {
            return found;
        }
        stats.window_expansions += 1;
        growths += 1;
        margin = margin.saturating_mul(4);
    }
}

/// Congestion-aware maze routing: A* over the tile grid inside `win`,
/// using the quantized edge costs of [`Grid::step_cost_q`].
///
/// Contract: coincident endpoints return an explicit **empty path** (a
/// single corner point, length 0) — never `None`. `None` means the goal
/// was not reachable inside the window, which cannot happen when `win`
/// contains both endpoints (the grid is fully connected) but is kept for
/// defensive callers.
fn maze_route_astar(
    c: &Conn,
    grid: &Grid,
    device: &Device,
    win: &Window,
    arena: &mut RouterArena,
    history_weight: f64,
    stats: &mut RouteStats,
) -> Option<Path> {
    if c.from == c.to {
        return Some(Path {
            points: vec![c.from],
        });
    }
    let w = device.width as usize;
    let h = device.height as usize;
    let start = (c.from.1 as usize) * w + c.from.0 as usize;
    let goal = (c.to.1 as usize) * w + c.to.0 as usize;
    arena.begin(w * h);

    // Admissible, consistent heuristic: Manhattan distance × cheapest
    // possible edge (every edge costs at least MIN_STEP_Q).
    let heur = |tile: usize| -> u64 {
        let x = (tile % w) as u32;
        let y = (tile / w) as u32;
        (x.abs_diff(c.to.0) + y.abs_diff(c.to.1)) as u64 * MIN_STEP_Q
    };
    // Bucket keys are offset by f(start) so the queue starts at 0.
    let f0 = heur(start);

    arena.set(start, 0, u32::MAX);
    arena.push(0, start as u32);
    stats.heap_pushes += 1;
    let mut found = false;
    while let Some((key, tile)) = arena.pop() {
        let tile = tile as usize;
        let f = arena.g(tile) + heur(tile) - f0;
        if f != key {
            continue; // stale entry superseded by a cheaper path
        }
        stats.expanded_nodes += 1;
        if tile == goal {
            found = true;
            break;
        }
        let g = arena.g(tile);
        let x = tile % w;
        let y = tile / w;
        // Track usage is accounted on the tile being left, matching
        // `Grid::for_each_step` (min of the two tiles of a step).
        let neighbors = [
            (x > 0, tile.wrapping_sub(1), true),
            (x + 1 < w, tile + 1, true),
            (y > 0, tile.wrapping_sub(w), false),
            (y + 1 < h, tile + w, false),
        ];
        for (ok, next, horiz) in neighbors {
            if !ok {
                continue;
            }
            let nx = (next % w) as u32;
            let ny = (next / w) as u32;
            if !win.contains(nx, ny) {
                continue;
            }
            let ng = g + grid.step_cost_q(tile.min(next), horiz, c.width, history_weight);
            if !arena.is_fresh(next) || ng < arena.g(next) {
                arena.set(next, ng, tile as u32);
                arena.push(ng + heur(next) - f0, next as u32);
                stats.heap_pushes += 1;
            }
        }
    }
    if !found {
        return None;
    }
    Some(reconstruct(arena, start, goal, w))
}

/// The pre-change maze kernel: full-grid Dijkstra on a binary heap with
/// per-connection array allocation. Shares the quantized cost model with
/// the A* kernel so both return paths of identical total cost.
///
/// Same zero-length contract as [`maze_route_astar`]: coincident endpoints
/// yield an explicit empty path, never `None`.
fn maze_route_dijkstra(
    c: &Conn,
    grid: &Grid,
    device: &Device,
    history_weight: f64,
    stats: &mut RouteStats,
) -> Option<Path> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    if c.from == c.to {
        return Some(Path {
            points: vec![c.from],
        });
    }
    let w = device.width as usize;
    let h = device.height as usize;
    let n = w * h;
    let start = (c.from.1 as usize) * w + c.from.0 as usize;
    let goal = (c.to.1 as usize) * w + c.to.0 as usize;

    let mut dist = vec![u64::MAX; n];
    let mut prev = vec![u32::MAX; n];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    dist[start] = 0;
    heap.push(Reverse((0, start)));
    stats.heap_pushes += 1;
    let mut found = false;
    while let Some(Reverse((cost, tile))) = heap.pop() {
        if cost > dist[tile] {
            continue;
        }
        stats.expanded_nodes += 1;
        if tile == goal {
            found = true;
            break;
        }
        let x = tile % w;
        let y = tile / w;
        let neighbors = [
            (x > 0, tile.wrapping_sub(1), true),
            (x + 1 < w, tile + 1, true),
            (y > 0, tile.wrapping_sub(w), false),
            (y + 1 < h, tile + w, false),
        ];
        for (ok, next, horiz) in neighbors {
            if !ok {
                continue;
            }
            let nd = cost + grid.step_cost_q(tile.min(next), horiz, c.width, history_weight);
            if nd < dist[next] {
                dist[next] = nd;
                prev[next] = tile as u32;
                heap.push(Reverse((nd, next)));
                stats.heap_pushes += 1;
            }
        }
    }
    if !found {
        return None;
    }

    // Reuse the shared reconstruction via a throwaway arena view.
    let mut chain = vec![goal];
    let mut cur = goal;
    while cur != start {
        cur = prev[cur] as usize;
        chain.push(cur);
    }
    chain.reverse();
    Some(compress_chain(&chain, w))
}

/// Walk `prev` links in the arena back from `goal`, then compress the tile
/// chain into corner points.
fn reconstruct(arena: &RouterArena, start: usize, goal: usize, w: usize) -> Path {
    let mut chain = vec![goal];
    let mut cur = goal;
    while cur != start {
        cur = arena.prev[cur] as usize;
        chain.push(cur);
    }
    chain.reverse();
    compress_chain(&chain, w)
}

/// Compress a chain of adjacent tiles into a corner-point [`Path`].
fn compress_chain(chain: &[usize], w: usize) -> Path {
    let to_xy = |t: usize| ((t % w) as u32, (t / w) as u32);
    let mut points = vec![to_xy(chain[0])];
    for win in chain.windows(3) {
        let (ax, ay) = to_xy(win[0]);
        let (bx, by) = to_xy(win[1]);
        let (cx, cy) = to_xy(win[2]);
        let dir1 = (bx != ax, by != ay);
        let dir2 = (cx != bx, cy != by);
        if dir1 != dir2 {
            points.push((bx, by));
        }
    }
    points.push(to_xy(*chain.last().unwrap()));
    Path { points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{place, PlacerOptions};
    use hls_ir::frontend::compile;
    use hls_synth::{HlsFlow, HlsOptions};
    use proptest::prelude::*;

    fn route_src(src: &str) -> (RtlDesign, RouteResult, Device) {
        let m = compile(src).unwrap();
        let d = HlsFlow::new(HlsOptions::default()).run(&m).unwrap();
        let device = Device::xc7z020();
        let p = place(&d.rtl, &device, &PlacerOptions::fast());
        let r = route(&d.rtl, &p, &device, &RouterOptions::default());
        (d.rtl, r, device)
    }

    #[test]
    fn usage_is_nonzero_for_real_designs() {
        let (_, r, _) = route_src(
            "int32 f(int32 a[32], int32 k) { int32 s = 0; for (i = 0; i < 32; i++) { s = s + a[i] * k; } return s; }",
        );
        let total_h: u64 = r.h_usage.iter().map(|&u| u as u64).sum();
        let total_v: u64 = r.v_usage.iter().map(|&u| u as u64).sum();
        assert!(total_h + total_v > 0);
        assert!(!r.conns.is_empty());
    }

    #[test]
    fn connection_lengths_are_manhattan_or_longer() {
        let (_, r, _) = route_src("int32 f(int32 x, int32 y) { return x * y + x - y; }");
        for c in &r.conns {
            // Paths are rectilinear, so length >= 1 for distinct endpoints.
            assert!(c.len >= 1);
        }
    }

    fn congested_design() -> (RtlDesign, Placement, Device) {
        let m = compile(
            "int32 f(int32 a[64], int32 k) {\n#pragma HLS array_partition variable=a complete\nint32 s = 0;\n#pragma HLS unroll\nfor (i = 0; i < 64; i++) { s = s + a[i] * k; } return s; }",
        )
        .unwrap();
        let d = HlsFlow::new(HlsOptions::default()).run(&m).unwrap();
        let device = Device::xc7z020();
        let p = place(&d.rtl, &device, &PlacerOptions::fast());
        (d.rtl, p, device)
    }

    #[test]
    fn refinement_does_not_increase_overflow() {
        let (rtl, p, device) = congested_design();
        let r0 = route(
            &rtl,
            &p,
            &device,
            &RouterOptions {
                refine_passes: 0,
                ..Default::default()
            },
        );
        let r2 = route(
            &rtl,
            &p,
            &device,
            &RouterOptions {
                refine_passes: 2,
                ..Default::default()
            },
        );
        let over = |r: &RouteResult| -> f64 { r.conns.iter().map(|c| c.overflow).sum() };
        assert!(
            over(&r2) <= over(&r0) * 1.2 + 1.0,
            "refinement should not blow up overflow: {} vs {}",
            over(&r2),
            over(&r0)
        );
    }

    #[test]
    fn maze_routing_relieves_overflow_at_least_as_well() {
        let (rtl, p, device) = congested_design();
        let plain = route(&rtl, &p, &device, &RouterOptions::default());
        let maze = route(&rtl, &p, &device, &RouterOptions::with_maze(2));
        let over = |r: &RouteResult| -> f64 { r.conns.iter().map(|c| c.overflow).sum() };
        assert!(
            over(&maze) <= over(&plain) * 1.05 + 1.0,
            "maze should not be worse: {} vs {}",
            over(&maze),
            over(&plain)
        );
    }

    #[test]
    fn astar_maze_is_no_worse_than_reference_and_cheaper_to_search() {
        let (rtl, p, device) = congested_design();
        let astar = route(&rtl, &p, &device, &RouterOptions::with_maze(2));
        let refr = route(&rtl, &p, &device, &RouterOptions::with_reference_maze(2));
        let over_tiles = |r: &RouteResult| {
            crate::congestion::CongestionMap::from_route(r, &device).tiles_over(100.0)
        };
        assert!(
            over_tiles(&astar) <= over_tiles(&refr),
            "A* must relieve at least as many tiles: {} vs {}",
            over_tiles(&astar),
            over_tiles(&refr)
        );
        assert!(
            astar.stats.expanded_nodes < refr.stats.expanded_nodes,
            "windowed A* must expand fewer nodes: {} vs {}",
            astar.stats.expanded_nodes,
            refr.stats.expanded_nodes
        );
    }

    #[test]
    fn stats_are_populated_only_when_work_happens() {
        let (_, r, _) = route_src("int32 f(int32 x, int32 y) { return x * y + x - y; }");
        // Tiny design: no overflow, so refinement exits early.
        assert_eq!(r.stats.passes_run, 0);
        assert_eq!(r.stats.rerouted_conns, 0);
        assert_eq!(r.stats.expanded_nodes, 0);

        let (rtl, p, device) = congested_design();
        let r = route(&rtl, &p, &device, &RouterOptions::with_maze(2));
        assert!(r.stats.passes_run >= 1);
        assert!(r.stats.rerouted_conns > 0);
        assert!(r.stats.expanded_nodes > 0);
        assert!(r.stats.heap_pushes >= r.stats.expanded_nodes);
    }

    fn test_grid(w: u32, h: u32, cap: u32) -> Grid {
        Grid::new((w * h) as usize, w, cap, cap)
    }

    #[test]
    fn maze_route_finds_a_path_between_distinct_points() {
        let device = Device::tiny(8, 8);
        let grid = test_grid(8, 8, 10);
        let c = Conn {
            net: 0,
            from: (1, 1),
            to: (6, 5),
            width: 4,
        };
        let mut arena = RouterArena::new();
        let mut stats = RouteStats::default();
        let path = maze_route_astar(
            &c,
            &grid,
            &device,
            &Window::full(&device),
            &mut arena,
            1.0,
            &mut stats,
        )
        .expect("path exists");
        assert_eq!(*path.points.first().unwrap(), (1, 1));
        assert_eq!(*path.points.last().unwrap(), (6, 5));
        // Manhattan-optimal in an empty grid.
        assert_eq!(path.len(), 5 + 4);
        assert!(stats.expanded_nodes > 0);
    }

    #[test]
    fn zero_length_connection_yields_explicit_empty_path() {
        let device = Device::tiny(8, 8);
        let grid = test_grid(8, 8, 10);
        let c = Conn {
            net: 0,
            from: (3, 3),
            to: (3, 3),
            width: 4,
        };
        let mut arena = RouterArena::new();
        let mut stats = RouteStats::default();
        for path in [
            maze_route_astar(
                &c,
                &grid,
                &device,
                &Window::full(&device),
                &mut arena,
                1.0,
                &mut stats,
            ),
            maze_route_dijkstra(&c, &grid, &device, 1.0, &mut stats),
        ] {
            let path = path.expect("empty path, not None");
            assert_eq!(path.len(), 0);
            assert_eq!(path.points, vec![(3, 3)]);
            // An empty path crosses no tile.
            let mut steps = 0;
            grid.for_each_step(&path, |_, _| steps += 1);
            assert_eq!(steps, 0);
        }
    }

    #[test]
    fn arena_generations_isolate_searches() {
        let device = Device::tiny(8, 8);
        let mut grid = test_grid(8, 8, 10);
        // Congest a column so the second search must detour.
        for y in 0..8 {
            grid.v_usage[(y * 8 + 4) as usize] = 40;
        }
        let mut arena = RouterArena::new();
        let mut stats = RouteStats::default();
        let c1 = Conn {
            net: 0,
            from: (0, 0),
            to: (7, 7),
            width: 1,
        };
        let c2 = Conn {
            net: 1,
            from: (7, 0),
            to: (0, 7),
            width: 1,
        };
        let full = Window::full(&device);
        let p1a = maze_route_astar(&c1, &grid, &device, &full, &mut arena, 1.0, &mut stats)
            .unwrap()
            .points;
        let _ = maze_route_astar(&c2, &grid, &device, &full, &mut arena, 1.0, &mut stats);
        let p1b = maze_route_astar(&c1, &grid, &device, &full, &mut arena, 1.0, &mut stats)
            .unwrap()
            .points;
        assert_eq!(p1a, p1b, "arena reuse must not leak state across searches");
    }

    #[test]
    fn path_len_computation() {
        let p = Path {
            points: vec![(0, 0), (5, 0), (5, 3)],
        };
        assert_eq!(p.len(), 8);
    }

    #[test]
    fn grid_apply_roundtrip() {
        let mut g = test_grid(10, 10, 10);
        let p = Path {
            points: vec![(0, 0), (5, 0), (5, 5)],
        };
        g.apply(&p, 8, 1);
        assert!(g.h_usage.contains(&8));
        assert!(g.v_usage.contains(&8));
        g.apply(&p, 8, -1);
        assert!(g.h_usage.iter().all(|&u| u == 0));
        assert!(g.v_usage.iter().all(|&u| u == 0));
    }

    #[test]
    fn history_bump_targets_only_overflowed_tiles() {
        let mut g = test_grid(4, 4, 10);
        g.h_usage[3] = 11;
        g.v_usage[5] = 10; // at capacity, not over
        g.bump_history();
        assert_eq!(g.h_hist[3], 1);
        assert_eq!(g.v_hist[5], 0);
        assert!(g.any_overflow());
        // History raises the quantized cost of the hot tile.
        assert!(g.step_cost_q(3, true, 1, 1.0) > g.step_cost_q(2, true, 1, 1.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The A* kernel (full window) must return paths of exactly the
        /// same quantized cost as the reference Dijkstra kernel on random
        /// grids, usage maps, and history states.
        #[test]
        fn astar_cost_matches_reference_dijkstra(
            w in 4u32..13, h in 4u32..13,
            ax in 0u32..13, ay in 0u32..13, bx in 0u32..13, by in 0u32..13,
            width in 1u32..24,
            usage in prop::collection::vec(0u32..90, 338),
            hist in prop::collection::vec(0u32..4, 338),
        ) {
            let device = Device::tiny(w, h);
            let n = (w * h) as usize;
            let mut grid = test_grid(w, h, 30);
            grid.h_usage[..n].copy_from_slice(&usage[..n]);
            grid.v_usage[..n].copy_from_slice(&usage[n..(n + n)]);
            grid.h_hist[..n].copy_from_slice(&hist[..n]);
            grid.v_hist[..n].copy_from_slice(&hist[n..(n + n)]);
            let c = Conn {
                net: 0,
                from: (ax % w, ay % h),
                to: (bx % w, by % h),
                width,
            };
            let mut arena = RouterArena::new();
            let mut stats = RouteStats::default();
            let astar = maze_route_astar(
                &c, &grid, &device, &Window::full(&device), &mut arena, 1.0, &mut stats,
            ).expect("A* finds a path on a connected grid");
            let dij = maze_route_dijkstra(&c, &grid, &device, 1.0, &mut stats)
                .expect("Dijkstra finds a path on a connected grid");
            let ca = grid.path_cost_q(&astar, c.width, 1.0);
            let cd = grid.path_cost_q(&dij, c.width, 1.0);
            prop_assert_eq!(ca, cd, "A* path cost must equal Dijkstra's");
            prop_assert_eq!(*astar.points.first().unwrap(), c.from);
            prop_assert_eq!(*astar.points.last().unwrap(), c.to);
        }

        /// Windowed A* (small margin) never beats the unwindowed optimum,
        /// and both stay optimal when the window covers the whole grid.
        #[test]
        fn windowed_search_cost_is_bounded_below_by_optimum(
            w in 6u32..13, h in 6u32..13,
            usage in prop::collection::vec(0u32..60, 338),
        ) {
            let device = Device::tiny(w, h);
            let n = (w * h) as usize;
            let mut grid = test_grid(w, h, 30);
            grid.h_usage[..n].copy_from_slice(&usage[..n]);
            grid.v_usage[..n].copy_from_slice(&usage[n..(n + n)]);
            let c = Conn { net: 0, from: (1, 1), to: (w - 2, h - 2), width: 4 };
            let mut arena = RouterArena::new();
            let mut stats = RouteStats::default();
            let small = Window::around(&c, 1, &device);
            let windowed = maze_route_astar(&c, &grid, &device, &small, &mut arena, 1.0, &mut stats)
                .expect("window contains both endpoints");
            let optimal = maze_route_astar(
                &c, &grid, &device, &Window::full(&device), &mut arena, 1.0, &mut stats,
            ).unwrap();
            prop_assert!(
                grid.path_cost_q(&windowed, c.width, 1.0) >= grid.path_cost_q(&optimal, c.width, 1.0)
            );
        }
    }
}
