//! Program allocation: the constraint model of §4.3, solved exactly.
//!
//! The model assigns each depth level of the translated program a *logical
//! RPB* `x_i ∈ 1..=M·(R+1)` (physical RPB × recirculation pass), subject to
//! the paper's constraints:
//!
//! 1. strict ordering: `x_i < x_{i+1}`;
//! 2. table entries: the entries a program installs into a physical RPB
//!    (across all its passes) must fit the RPB's free entries;
//! 3. memory: each virtual memory block needs contiguous free memory in
//!    its physical RPB;
//! 4. forwarding primitives only execute in ingress RPBs;
//! 5. two accesses to the same virtual memory at different depths must hit
//!    the same physical RPB on different passes (`x_j = x_i + M·k`) — the
//!    hardware cannot access one stage's memory from another;
//! 6. *(this implementation, see DESIGN.md)* an offset step and its memory
//!    access — and a supportive-register backup and its restore — must land
//!    in the same pass, because the translated address (`pma`) and the
//!    scratch container are not carried in the recirculation header.
//!
//! The prototype hands this model to Z3; here it is solved by exact
//! branch-and-bound (the model is small: `L ≤ 44` variables over a domain
//! of 44 values). All four objective schemes of §6.2.4 are implemented:
//! `f1 = α·x_L − β·x_1`, `f2 = x_L`, `f3 = x_L / x_1`, and the
//! hierarchical scheme (minimize `x_L`, then maximize `x_1`). `f3`'s
//! nonlinear objective defeats the bound pruning over `x_1` and gets one
//! inner solve per feasible `x_1` — the slowest scheme (Figure 12).
//!
//! ## The fast solver
//!
//! Placement feasibility is decided up front wherever the model allows it,
//! and searched only inside what is left (the same split a P4₁₆ RMT
//! backend makes between per-stage resource checks and table placement).
//! Three steps, each O(L) or O(L·M):
//!
//! 1. **Domains.** Every level gets a static domain `D_i`: the physical
//!    RPBs that satisfy the constraints which do not depend on the other
//!    levels — ingress-only forwarding (4), `entries ≤ te_free[rpb]` (2),
//!    a free partition for each accessed memory (3); levels that share a
//!    memory share one domain (5). An empty domain rejects the program
//!    with a reason that names the level and the constraint.
//! 2. **Windows.** Strict ordering (1), same-memory links `x_b ≥ x_a + M`,
//!    `x_b ≤ x_a + R·M` (5) and same-pass pairs (6) are propagated over
//!    the domains to a fixpoint, giving per-level windows `[lo_i, hi_i]`
//!    that contain every feasible assignment. Lower ends are recomputed
//!    per pinned `x_1`; `lo_L` is then a lower bound on `x_L` for that
//!    pin. Upper ends are recomputed whenever the incumbent `x_L`
//!    improves (the propagation runs on the mirrored model — see
//!    [`Model::mirror`]). An empty window means *infeasible*, decided
//!    without a single search node: this is what used to cost a
//!    binomially growing enumeration per infeasible pin.
//! 3. **Bounded DFS.** The search walks `D_i ∩ [lo_i, hi_i]` in ascending
//!    order with every check of `try_place` in force, and an inner solve
//!    ends at the first leaf that meets its pin's lower bound. The
//!    objective loops skip a pin whose lower bound cannot beat the
//!    incumbent; `f1` takes its pins best first (see
//!    [`Solver::weighted_diff`]), so its first search usually settles it.
//!    Two sound prunes ride along: **suffix capacity** (entries still to
//!    place against the total still free, O(1) per node) and **free-slot
//!    dominance** (a level with no entries, no memories, no forwarding and
//!    no same-pass pair — an alignment NOP — only ever tries its smallest
//!    legal index).
//!
//! Candidate order within a pin and the reference's choice between pins
//! are kept, so the assignment returned is the reference's: the first
//! minimum within a pin, and between pins the best score, ties going to
//! the larger `x_1`. The windows only remove candidates that lead to no
//! leaf, or to none that improves. Per-solve setup works on memory ids,
//! not names. `node_budget` still bounds every inner solve; one that runs
//! into it is counted in [`Allocation::truncated_solves`] instead of
//! passing silently.
//!
//! The winning assignment's first-fit placement comes back as concrete
//! regions ([`Allocation::regions`]): the only placement decision, which the
//! resource manager commits as it is.
//!
//! The clone-heavy solver without any of this survives as a test oracle
//! (`tests/support/alloc_reference.rs`, built on [`slot_requirements`]
//! and the public model types only); the `alloc_equivalence` suite keeps
//! the two in lockstep and checks that the windows contain every
//! assignment the reference finds.

use crate::errors::{CompileError, CompileResult};
use crate::ir::{IrOp, MemDecl, ProgramIr};
use p4rp_dataplane::{LogicalRpb, RpbId, NUM_RPBS};

/// Per-level requirements extracted from the IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotReq {
    /// Table entries this level installs (NOPs cost none).
    pub entries: usize,
    /// Virtual memories accessed at this level.
    pub mems: Vec<String>,
    /// Contains a forwarding primitive (constraint 4).
    pub is_forwarding: bool,
}

/// Extract slot requirements and same-pass pairs from a lowered program.
pub fn slot_requirements(ir: &ProgramIr) -> (Vec<SlotReq>, Vec<(usize, usize)>) {
    let (reqs, pairs) = interned_requirements(ir);
    let reqs = reqs
        .into_iter()
        .map(|r| SlotReq {
            entries: r.entries,
            mems: r.mems.iter().map(|&m| ir.memories[usize::from(m)].name.clone()).collect(),
            is_forwarding: r.is_forwarding,
        })
        .collect();
    (reqs, pairs)
}

/// [`slot_requirements`] with each memory as its index in `ir.memories`
/// (lower declares every memory an op accesses there), a level's memories
/// in name order, plus the dominance flag of every level.
fn interned_requirements(ir: &ProgramIr) -> (Vec<SlotReqI>, Vec<(usize, usize)>) {
    let mut reqs = Vec::with_capacity(ir.levels.len());
    let mut pairs = Vec::new();
    let mut backups: Vec<(u32, usize)> = Vec::new();
    for (i, level) in ir.levels.iter().enumerate() {
        let mut mems: Vec<u16> = level
            .iter()
            .filter_map(|p| p.op.mem_access())
            .map(|name| {
                ir.memories
                    .iter()
                    .position(|d| d.name == name)
                    .expect("lowered op references a declared memory") as u16
            })
            .collect();
        mems.sort_by_key(|&m| &ir.memories[usize::from(m)].name);
        mems.dedup();
        let entries = level.iter().filter(|p| p.op != IrOp::Nop).count();
        let is_forwarding = level.iter().any(|p| p.op.is_forwarding());
        for p in level {
            match &p.op {
                IrOp::MemOffset { .. } => pairs.push((i, i + 1)),
                IrOp::Backup { pair, .. } => backups.push((*pair, i)),
                IrOp::Restore { pair, .. } => {
                    if let Some(&(_, b)) = backups.iter().rev().find(|(p, _)| p == pair) {
                        pairs.push((b, i));
                    }
                }
                _ => {}
            }
        }
        reqs.push(SlotReqI { entries, mems, is_forwarding, free: false });
    }
    pairs.sort_unstable();
    pairs.dedup();
    for (i, r) in reqs.iter_mut().enumerate() {
        r.free = r.entries == 0
            && r.mems.is_empty()
            && !r.is_forwarding
            && !pairs.iter().any(|&(a, b)| a == i || b == i);
    }
    (reqs, pairs)
}

/// Snapshot of data plane resource availability, supplied by the resource
/// manager (`te_free(x)` / `mem_free(x)` in the paper's formulation).
#[derive(Debug, Clone)]
pub struct AllocView {
    /// Free table entries per physical RPB (index 0 = RPB 1).
    pub te_free: Vec<usize>,
    /// Free memory per physical RPB: address-ordered `(offset, len)` spans,
    /// the free-partition list of §3.1.
    pub mem_free: Vec<Vec<(u32, u32)>>,
}

impl AllocView {
    /// A fully-free data plane (for tests and capacity analysis).
    pub fn unconstrained(table_size: usize, mem_size: u32) -> AllocView {
        AllocView {
            te_free: vec![table_size; NUM_RPBS],
            mem_free: vec![vec![(0, mem_size)]; NUM_RPBS],
        }
    }
}

/// The §6.2.4 objective schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// `f1 = α·x_L − β·x_1` (the prototype default, α=0.7, β=0.3).
    /// WeightedDiff.
    WeightedDiff { alpha: f64, beta: f64 },
    /// `f2 = x_L`.
    LastOnly,
    /// `f3 = x_L / x_1` (nonlinear; slow by design).
    Ratio,
    /// Minimize `x_L`, then maximize `x_1` with `x_L` fixed.
    Hierarchical,
}

impl Objective {
    /// The prototype's default: α = 0.7, β = 0.3 (§6.2).
    pub fn paper_default() -> Objective {
        Objective::WeightedDiff { alpha: 0.7, beta: 0.3 }
    }
}

/// Allocator configuration.
#[derive(Debug, Clone, Copy)]
pub struct AllocConfig {
    /// Maximum recirculation iterations `R` (the prototype uses 1).
    pub max_recirc: u8,
    /// Objective.
    pub objective: Objective,
    /// Search-node budget per inner solve. The allocation scheme is
    /// best-effort (§4.3); a search that exhausts the budget without a
    /// solution reports failure, like a Z3 timeout would.
    pub node_budget: u64,
}

impl Default for AllocConfig {
    fn default() -> Self {
        AllocConfig {
            max_recirc: 1,
            objective: Objective::paper_default(),
            node_budget: 200_000,
        }
    }
}

/// A successful allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Logical RPB index per level (1-based, length `L`).
    pub x: Vec<u16>,
    /// The region `(rpb, offset, size)` of each of `ir.memories`, in that
    /// order: where the search's first fit put it.
    pub regions: Vec<(RpbId, u32, u32)>,
    /// Pipeline passes the program needs (1 = no recirculation).
    pub passes: u8,
    /// Objective value.
    pub objective_value: f64,
    /// Search nodes explored (solver-cost proxy for the benchmarks).
    pub nodes_explored: u64,
    /// Inner solves that reached `node_budget` and returned the best
    /// assignment found so far (0 = the result is exact).
    pub truncated_solves: u64,
}

/// The windows `[lo_i, hi_i]` the solver searches, one per level, with
/// `x_1` held at `x1` or free: no assignment that satisfies the model puts
/// a level outside its window, so the last level's `lo` is a lower bound
/// on `x_L`. Fails like [`allocate`] when some window is empty. This is
/// the propagation step alone, exposed so its soundness can be checked
/// against the reference solver (`tests/alloc_equivalence.rs`).
pub fn windows(
    ir: &ProgramIr,
    view: &AllocView,
    cfg: &AllocConfig,
    x1: Option<u16>,
) -> CompileResult<Vec<(u16, u16)>> {
    let (reqs, pairs) = interned_requirements(ir);
    let max_index = LogicalRpb::max_index(cfg.max_recirc);
    let dom = static_domains(&reqs, &ir.memories, view, max_index)?;
    let model = Model::new(&reqs, pairs, dom, max_index)?;
    let (mut lo, mut hi) = model.windows(&model.mirror())?;
    if let Some(pin) = x1 {
        hi[0] = hi[0].min(pin);
        if model.open(x1, &mut lo).is_none() || lo.iter().zip(&hi).any(|(lo, hi)| lo > hi) {
            return failed(format!("x_1 = {pin} leaves some level no logical RPB"));
        }
    }
    Ok(lo.into_iter().zip(hi).collect())
}

fn failed<T>(reason: String) -> CompileResult<T> {
    Err(CompileError::AllocationFailed { reason })
}

/// Solve the allocation model for one program.
pub fn allocate(
    ir: &ProgramIr,
    view: &AllocView,
    cfg: &AllocConfig,
) -> CompileResult<Allocation> {
    let (reqs, pairs) = interned_requirements(ir);
    let max_index = LogicalRpb::max_index(cfg.max_recirc);
    let l = reqs.len();
    let dom = static_domains(&reqs, &ir.memories, view, max_index)?;
    let sizes: Vec<u32> = ir.memories.iter().map(|m| m.size).collect();
    let mut entries_suffix = vec![0usize; l + 1];
    for i in (0..l).rev() {
        entries_suffix[i] = entries_suffix[i + 1] + reqs[i].entries;
    }

    let model = Model::new(&reqs, pairs, dom, max_index)?;
    let mirror = model.mirror();
    let (lo, hi) = model.windows(&mirror)?;
    let (first_pin, last_pin) = (lo[0], hi[0]);

    let mut solver = Solver {
        budget: cfg.node_budget,
        reqs: &reqs,
        sizes: &sizes,
        entries_suffix: &entries_suffix,
        model: &model,
        mirror: &mirror,
        lo,
        hi,
        hi_cap: max_index,
        x: vec![0; l],
        pinned: false,
        te_free: &view.te_free,
        te_used: [0; NUM_RPBS],
        free_total: view.te_free.iter().sum(),
        mem_free: view.mem_free.iter().flatten().map(|&(_, len)| len).collect(),
        mem_spans: spans_start(view),
        mem_placed: vec![None; sizes.len()],
        nodes: 0,
        deadline: 0,
        truncated_solves: 0,
        done: false,
    };

    let best = match cfg.objective {
        Objective::LastOnly => solver.search_min_xl(None, max_index).map(|(x, xl)| (x, f64::from(xl))),
        Objective::Hierarchical => {
            // Phase 1: minimal x_L. Phase 2: maximal x_1 holding x_L.
            match solver.search_min_xl(None, max_index) {
                None => None,
                Some((x0, xl)) => {
                    let mut best: Option<(Vec<u16>, f64)> = Some((x0, f64::from(xl)));
                    for x1 in (first_pin.max(2)..=last_pin).rev() {
                        if let Some((x, got_xl)) = solver.search_min_xl(Some(x1), xl) {
                            debug_assert!(got_xl <= xl);
                            best = Some((x, f64::from(got_xl)));
                            break;
                        }
                    }
                    best
                }
            }
        }
        Objective::WeightedDiff { alpha, beta } => {
            solver.weighted_diff(alpha, beta, first_pin, last_pin)
        }
        Objective::Ratio => {
            // Nonlinear: every feasible x_1 gets its own solve, no pin is
            // skipped on the objective — the deliberate cost the paper
            // measures in Figure 12.
            let mut best: Option<(Vec<u16>, f64)> = None;
            for x1 in first_pin..=last_pin {
                if let Some((x, xl)) = solver.search_min_xl(Some(x1), max_index) {
                    let score = f64::from(xl) / f64::from(x1);
                    if best.as_ref().is_none_or(|(_, s)| score < *s) {
                        best = Some((x, score));
                    }
                }
            }
            best
        }
    };

    match best {
        None => failed(format!("no feasible placement for {l} levels")),
        Some((x, objective_value)) => {
            let regions = solver.placement(&x, view);
            let passes = x
                .iter()
                .map(|&xi| LogicalRpb::from_index(xi).pass())
                .max()
                .unwrap_or(0)
                + 1;
            Ok(Allocation {
                x,
                regions,
                passes,
                objective_value,
                nodes_explored: solver.nodes,
                truncated_solves: solver.truncated_solves,
            })
        }
    }
}

/// Where each RPB's free spans start when every RPB's are laid out in a
/// row, RPB 1 first; the last element is the total.
fn spans_start(view: &AllocView) -> [usize; NUM_RPBS + 1] {
    let mut start = [0; NUM_RPBS + 1];
    for (r, spans) in view.mem_free.iter().enumerate() {
        start[r + 1] = start[r] + spans.len();
    }
    start
}

/// `M`: logical indices per pass.
const M: u16 = NUM_RPBS as u16;

/// What is decidable before any search: depth, total entries, and the
/// static domain `D_i` of every level — the physical RPBs (bit `r` = RPB
/// `r + 1`) that satisfy the constraints which do not depend on where the
/// other levels go: ingress-only forwarding (4), enough free entries for
/// the level and, when it accesses a memory, for every level that shares
/// that memory's RPB (2)+(5), and a free partition that holds each
/// accessed memory (3). A level with an empty domain fails the program.
fn static_domains(
    reqs: &[SlotReqI],
    memories: &[MemDecl],
    view: &AllocView,
    max_index: u16,
) -> CompileResult<Vec<u32>> {
    if reqs.is_empty() {
        return failed("empty program".into());
    }
    if reqs.len() > usize::from(max_index) {
        return Err(CompileError::TooDeep { depth: reqs.len(), max: usize::from(max_index) });
    }
    let total_entries: usize = reqs.iter().map(|r| r.entries).sum();
    let total_free: usize = view.te_free.iter().sum();
    if total_entries > total_free {
        return failed(format!("needs {total_entries} entries, {total_free} free"));
    }
    let hosted = |m: &u16| -> usize {
        reqs.iter().filter(|r| r.mems.contains(m)).map(|r| r.entries).sum()
    };
    reqs.iter()
        .enumerate()
        .map(|(i, req)| {
            let entries = req.mems.iter().map(hosted).fold(req.entries, usize::max);
            let dom = (0..NUM_RPBS)
                .filter(|&r| {
                    (!req.is_forwarding || RpbId(r as u8 + 1).is_ingress())
                        && view.te_free[r] >= entries
                        && req.mems.iter().all(|&m| {
                            let size = memories[usize::from(m)].size;
                            view.mem_free[r].iter().any(|&(_, len)| len >= size)
                        })
                })
                .fold(0u32, |dom, r| dom | 1 << r);
            if dom != 0 {
                return Ok(dom);
            }
            let (tag, kind) = if req.is_forwarding { (" (forwarding)", "ingress ") } else { ("", "") };
            let mut reason = format!("level {i}{tag}: no {kind}RPB with ≥ {entries} free entries");
            for &m in &req.mems {
                let MemDecl { name, size } = &memories[usize::from(m)];
                reason.push_str(&format!(
                    " and a free partition of ≥ {size} buckets for `{name}`"
                ));
            }
            failed(reason)
        })
        .collect()
}

/// Smallest logical index `≥ from` (and `≤ max`) whose physical RPB is in
/// `dom`.
#[inline]
fn next_in(dom: u32, from: u16, max: u16) -> Option<u16> {
    let r = u32::from((from - 1) % M);
    // Rotate the M-bit set so that bit 0 is `from`'s own RPB.
    let rot = ((dom >> r) | (dom << (u32::from(M) - r))) & ((1u32 << M) - 1);
    let next = from + rot.trailing_zeros() as u16;
    (rot != 0 && next <= max).then_some(next)
}

/// The part of the model that window propagation reads: static domains,
/// ordering, same-memory links and same-pass pairs.
struct Model {
    max_index: u16,
    /// `D_i` per level; levels that access one memory share one domain.
    dom: Vec<u32>,
    /// Consecutive accesses `(a, b)`, `a < b`, to one memory (5):
    /// `x_b = x_a + k·M` with `1 ≤ k ≤ R`.
    links: Vec<(usize, usize)>,
    /// Same-pass pairs `(a, b)`, `a < b` (6).
    pairs: Vec<(usize, usize)>,
}

impl Model {
    fn new(
        reqs: &[SlotReqI],
        pairs: Vec<(usize, usize)>,
        mut dom: Vec<u32>,
        max_index: u16,
    ) -> CompileResult<Model> {
        let mut links = Vec::new();
        let mut last_access: Vec<Option<usize>> = Vec::new();
        for (b, req) in reqs.iter().enumerate() {
            for &m in &req.mems {
                let m = usize::from(m);
                if last_access.len() <= m {
                    last_access.resize(m + 1, None);
                }
                if let Some(a) = last_access[m].replace(b) {
                    links.push((a, b));
                }
            }
        }
        // Linked levels sit in one physical RPB, so they share a domain.
        // (A level with two memories joins two chains, hence the loop.)
        loop {
            let mut narrowed = false;
            for &(a, b) in &links {
                let both = dom[a] & dom[b];
                if both == 0 {
                    return failed(format!(
                        "levels {a} and {b} access one memory (5) but no RPB suits both"
                    ));
                }
                narrowed |= dom[a] != both || dom[b] != both;
                dom[a] = both;
                dom[b] = both;
            }
            if !narrowed {
                break;
            }
        }
        Ok(Model { max_index, dom, links, pairs })
    }

    /// The widest windows `(lo, hi)` — `x_1` free, `x_L` up to the last
    /// logical index — or the reason some level has none.
    fn windows(&self, mirror: &Model) -> CompileResult<(Vec<u16>, Vec<u16>)> {
        let l = self.dom.len();
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        let empty = match (self.tighten(1, &mut lo), mirror.tighten(1, &mut hi)) {
            (Err(i), _) => Some(i),
            (_, Err(i)) => Some(l - 1 - i),
            _ => {
                mirror.reflect(&mut hi);
                (0..l).find(|&i| lo[i] > hi[i])
            }
        };
        match empty {
            None => Ok((lo, hi)),
            Some(i) => failed(format!(
                "level {i}: ordering (1), same-memory (5) and same-pass (6) constraints leave it \
                 no logical RPB among {}",
                self.max_index
            )),
        }
    }

    /// The same model read from the far end: level `i` becomes level
    /// `L−1−i` and index `c` becomes `max_index + 1 − c`. Every constraint
    /// keeps its form under this reflection (a pass maps onto a pass
    /// because `max_index` is a multiple of `M`), so an upper bound of the
    /// model is a lower bound of its mirror and [`Model::tighten`] serves
    /// both ends.
    fn mirror(&self) -> Model {
        let last = self.dom.len() - 1;
        let flip = |&(a, b): &(usize, usize)| (last - b, last - a);
        Model {
            max_index: self.max_index,
            dom: self.dom.iter().rev().map(|d| d.reverse_bits() >> (32 - u32::from(M))).collect(),
            links: self.links.iter().map(flip).collect(),
            pairs: self.pairs.iter().map(flip).collect(),
        }
    }

    /// Turn lower bounds computed on the mirror into upper bounds of the
    /// original, in place.
    fn reflect(&self, bounds: &mut [u16]) {
        bounds.reverse();
        for b in bounds {
            *b = self.max_index + 1 - *b;
        }
    }

    /// Lower window ends for `x_1 = pin` (or `x_1` free). Returns the lower
    /// bound on `x_L`, or `None` when the pin is outside its own window —
    /// infeasible, no search needed.
    fn open(&self, pin: Option<u16>, lo: &mut Vec<u16>) -> Option<u16> {
        self.tighten(pin.unwrap_or(1), lo).ok()?;
        pin.is_none_or(|p| lo[0] == p).then(|| lo[lo.len() - 1])
    }

    /// Per-level lower bounds given `x_1 ≥ start`: the least fixpoint of
    /// `lo_i ∈ D_i`, `lo_{i+1} > lo_i` (1), `lo_b ≥ lo_a + M` and
    /// `lo_a ≥ lo_b − R·M` for a link (5), and `pass(lo_a) ≥ pass(lo_b)`
    /// for a pair (6). Each sweep is O(L); a sweep is repeated only after
    /// a link or pair raised some bound. `Err(i)` when level `i` is pushed
    /// past `max_index` (no assignment exists).
    fn tighten(&self, start: u16, lo: &mut Vec<u16>) -> Result<(), usize> {
        let span = self.max_index - M;
        lo.clear();
        lo.resize(self.dom.len(), 0);
        loop {
            let mut floor = start;
            for (i, (bound, &dom)) in lo.iter_mut().zip(&self.dom).enumerate() {
                *bound = next_in(dom, floor.max(*bound), self.max_index).ok_or(i)?;
                floor = *bound + 1;
            }
            let mut raised = false;
            for &(a, b) in &self.links {
                if lo[b] < lo[a] + M {
                    lo[b] = lo[a] + M;
                    raised = true;
                }
                if lo[a] + span < lo[b] {
                    lo[a] = lo[b] - span;
                    raised = true;
                }
            }
            for &(a, b) in &self.pairs {
                let pass_start = (lo[b] - 1) / M * M + 1;
                if lo[a] < pass_start {
                    lo[a] = pass_start;
                    raised = true;
                }
            }
            if !raised {
                return Ok(());
            }
        }
    }
}

/// Interned per-level requirements (memories by id, dominance flag).
struct SlotReqI {
    entries: usize,
    mems: Vec<u16>,
    is_forwarding: bool,
    /// No entries, no memories, no forwarding, in no same-pass pair:
    /// the slot only spends a logical index (alignment NOP levels).
    free: bool,
}

struct Solver<'a> {
    budget: u64,
    reqs: &'a [SlotReqI],
    /// vmem id → size.
    sizes: &'a [u32],
    /// `entries_suffix[i]` = entries needed by slots `i..`.
    entries_suffix: &'a [usize],
    model: &'a Model,
    mirror: &'a Model,
    /// Lower window ends for the current pin ([`Solver::pin`]).
    lo: Vec<u16>,
    /// Upper window ends that still let `x_L` beat the incumbent of the
    /// running inner solve ([`Solver::cap`]), computed for `x_L ≤ hi_cap`.
    hi: Vec<u16>,
    hi_cap: u16,
    /// The partial assignment of the running inner solve (0 = unplaced).
    x: Vec<u16>,
    /// The current windows hold `x_1` at `lo[0]`.
    pinned: bool,
    te_free: &'a [usize],
    te_used: [usize; NUM_RPBS],
    /// Total free entries remaining across all RPBs.
    free_total: usize,
    /// Free span lengths, every RPB's spans in a row.
    mem_free: Vec<u32>,
    /// Where each RPB's spans start in `mem_free` (RPB `r + 1` at `r`).
    mem_spans: [usize; NUM_RPBS + 1],
    /// vmem id → (physical rpb index 0-based, last pass used).
    mem_placed: Vec<Option<(usize, u8)>>,
    nodes: u64,
    /// `nodes` value at which the running inner solve gives up.
    deadline: u64,
    truncated_solves: u64,
    /// The running inner solve is over: its incumbent cannot be beaten,
    /// or it ran out of budget.
    done: bool,
}

impl Solver<'_> {
    /// The regions assignment `x` takes, one per memory: [`Solver::try_place`]'s
    /// first fit replayed, once the search has restored the span lengths.
    /// Level by level, each memory at its first access is carved from the
    /// front of the first span of its RPB that still holds it.
    fn placement(&mut self, x: &[u16], view: &AllocView) -> Vec<(RpbId, u32, u32)> {
        // Size 0 marks a memory not placed yet (declared sizes are not 0).
        let mut regions = vec![(RpbId(0), 0, 0); self.sizes.len()];
        for (req, &xi) in self.reqs.iter().zip(x) {
            let rpb = LogicalRpb::from_index(xi).rpb();
            let r = usize::from(rpb.0) - 1;
            for &m in &req.mems {
                let (m, size) = (usize::from(m), self.sizes[usize::from(m)]);
                if regions[m].2 == 0 {
                    let free = &mut self.mem_free[self.mem_spans[r]..self.mem_spans[r + 1]];
                    let part = free.iter().position(|&p| p >= size).expect("the search placed it");
                    let (start, len) = view.mem_free[r][part];
                    regions[m] = (rpb, start + len - free[part], size);
                    free[part] -= size;
                }
            }
        }
        regions
    }

    /// `f1 = α·x_L − β·x_1` over the pins `x_1 ∈ [first, last]`. A pin
    /// scores `f1` at its least `x_L`, and the winner is the pin that ranks
    /// first: by score as computed, ties going to the larger `x_1`. That is
    /// the pin the reference's descending loop keeps, since it replaces its
    /// incumbent only on a strictly lower score.
    ///
    /// Two bounds rank a pin before its search: the *ordering bound*
    /// `f1(x_1, x_1 + L − 1)`, which costs nothing, and the *window bound*
    /// `f1(x_1, lo_L)` once the pin's windows are open. Neither is above
    /// the pin's score as computed (`x_1 + L − 1 ≤ lo_L ≤ x_L`, and float
    /// rounding is monotone for `α ≥ 0`), so a pin whose bound does not
    /// rank before the incumbent is skipped exactly. A search is capped at
    /// the largest `x_L` that still ranks before the incumbent.
    ///
    /// With `α > β` the ordering bound grows with `x_1`, so pins are taken
    /// best first: a pin's windows are opened, in ascending order, only once
    /// its ordering bound ranks before every open pin's window bound, and
    /// the open pin that ranks first is searched. The first search usually
    /// meets its window bound, and then no other pin is searched. With
    /// `α ≤ β` pins are taken in descending order, like the reference.
    fn weighted_diff(
        &mut self,
        alpha: f64,
        beta: f64,
        first: u16,
        last: u16,
    ) -> Option<(Vec<u16>, f64)> {
        type Best = Option<(Vec<u16>, f64, u16)>;
        let f1 = |x1: u16, xl: u16| alpha * f64::from(xl) - beta * f64::from(x1);
        let before = |(s, x1): (f64, u16), (t, y1): (f64, u16)| s < t || (s == t && x1 > y1);
        let beats = |best: &Best, rank: (f64, u16)| {
            best.as_ref().is_none_or(|&(_, s, x1)| before(rank, (s, x1)))
        };
        let max_index = self.model.max_index;
        // Search the pin the windows hold, keeping what ranks before `best`.
        let solve = |solver: &mut Self, best: &mut Best, x1: u16| {
            let cap = (1..=max_index).rev().find(|&xl| beats(best, (f1(x1, xl), x1)));
            if let Some((x, xl)) = cap.and_then(|cap| solver.search(cap)) {
                *best = Some((x, f1(x1, xl), x1));
            }
        };
        let span = self.reqs.len() as u16 - 1;
        let mut best: Best = None;
        if alpha <= beta {
            for x1 in (first..=last).rev() {
                if !beats(&best, (f1(x1, x1 + span), x1)) {
                    continue;
                }
                if self.pin(Some(x1)).is_some_and(|xl| beats(&best, (f1(x1, xl), x1))) {
                    solve(self, &mut best, x1);
                }
            }
        } else {
            // `(window bound, x_1)` of the opened pins not searched yet.
            let mut open: Vec<(f64, u16)> = Vec::new();
            let (mut next, mut held) = (first, None);
            loop {
                let top =
                    (0..open.len()).reduce(|i, j| if before(open[j], open[i]) { j } else { i });
                let ordering = (next <= last).then(|| (f1(next, next + span), next));
                if let Some(rank) = ordering.filter(|&r| top.is_none_or(|t| before(r, open[t]))) {
                    next += 1;
                    if beats(&best, rank) {
                        held = Some(rank.1);
                        if let Some(xl) = self.pin(Some(rank.1)) {
                            open.push((f1(rank.1, xl), rank.1));
                        }
                    }
                } else if let Some(t) = top {
                    let rank = open.swap_remove(t);
                    if beats(&best, rank) {
                        if held != Some(rank.1) {
                            self.pin(Some(rank.1));
                            held = Some(rank.1);
                        }
                        solve(self, &mut best, rank.1);
                    }
                } else {
                    break;
                }
            }
        }
        best.map(|(x, score, _)| (x, score))
    }

    /// Open the windows for `x_1 = pin` (or `x_1` free); see [`Model::open`].
    fn pin(&mut self, pin: Option<u16>) -> Option<u16> {
        self.pinned = pin.is_some();
        self.model.open(pin, &mut self.lo)
    }

    /// Shrink the upper window ends to what `x_L ≤ cap` allows; `false`
    /// when that leaves some window empty.
    fn cap(&mut self, cap: u16) -> bool {
        // Most inner solves end at their lower bound and never lower the
        // cap, so successive pins usually ask for the ends `hi` still holds.
        if self.hi_cap != cap {
            self.hi_cap = u16::MAX; // `hi` is scratch until the reflect below
            if self.mirror.tighten(self.model.max_index + 1 - cap, &mut self.hi).is_err() {
                return false;
            }
            self.mirror.reflect(&mut self.hi);
            self.hi_cap = cap;
        }
        self.lo.iter().zip(&self.hi).all(|(lo, hi)| lo <= hi)
    }

    /// Branch-and-bound minimizing `x_L` subject to `x_L ≤ cap`,
    /// optionally pinning `x_1`. Returns the best assignment found.
    fn search_min_xl(&mut self, x1: Option<u16>, cap: u16) -> Option<(Vec<u16>, u16)> {
        self.pin(x1)?;
        self.search(cap)
    }

    /// The inner solve, inside the windows [`Solver::pin`] opened.
    fn search(&mut self, cap: u16) -> Option<(Vec<u16>, u16)> {
        if !self.cap(cap) {
            return None;
        }
        let mut best: Option<(Vec<u16>, u16)> = None;
        self.deadline = self.nodes.saturating_add(self.budget);
        self.done = false;
        self.dfs(0, 0, &mut best);
        best
    }

    fn dfs(&mut self, slot: usize, prev: u16, best: &mut Option<(Vec<u16>, u16)>) {
        if self.done {
            return;
        }
        if self.nodes >= self.deadline {
            self.truncated_solves += 1;
            self.done = true;
            return;
        }
        let l = self.reqs.len();
        if slot == l {
            // `hi` admits only leaves that beat the incumbent. The next
            // one must beat this one; none can once the lower bound is met.
            let xl = prev;
            *best = Some((self.x.clone(), xl));
            self.done = xl == self.lo[l - 1] || !self.cap(xl - 1);
            return;
        }
        // Suffix capacity: entries still to place exceed the total free —
        // infeasible no matter the assignment.
        if self.entries_suffix[slot] > self.free_total {
            return;
        }
        let dom = self.model.dom[slot];
        let mut next = next_in(dom, self.lo[slot].max(prev + 1), self.hi[slot]);
        while let Some(cand) = next {
            // A leaf below may have ended the solve or lowered `hi`.
            if self.done || cand > self.hi[slot] {
                return;
            }
            self.nodes += 1;
            if let Some(undo) = self.try_place(slot, cand) {
                self.x[slot] = cand;
                self.dfs(slot + 1, cand, best);
                self.x[slot] = 0;
                self.unplace(undo);
            }
            // Dominance: a free slot at its smallest legal index strictly
            // dominates any later one (same resources, looser ordering),
            // so one child decides the whole range. So does a pinned x_1.
            let only = self.reqs[slot].free || (slot == 0 && self.pinned);
            next = if only { None } else { next_in(dom, cand + 1, self.hi[slot]) };
        }
    }

    /// Attempt to place `slot` at logical index `cand`; on success return
    /// the undo record.
    fn try_place(&mut self, slot: usize, cand: u16) -> Option<Undo> {
        let req = &self.reqs[slot];
        let logical = LogicalRpb::from_index(cand);
        let rpb = logical.rpb();
        let rpb_idx = usize::from(rpb.0) - 1;
        let pass = logical.pass();

        // (4) forwarding only in ingress RPBs.
        if req.is_forwarding && !rpb.is_ingress() {
            return None;
        }
        // (6) same-pass pairs where this slot is the second element.
        for &(a, b) in &self.model.pairs {
            if b == slot {
                let xa = self.x[a];
                if xa != 0 && LogicalRpb::from_index(xa).pass() != pass {
                    return None;
                }
            }
        }
        // (2) table entries, cumulative per physical RPB.
        if self.te_used[rpb_idx] + req.entries > self.te_free[rpb_idx] {
            return None;
        }
        // (3)+(5) memory.
        let mut mem_undo: Vec<MemUndo> = Vec::new();
        for &m in &req.mems {
            let mi = usize::from(m);
            match self.mem_placed[mi] {
                Some((placed_rpb, last_pass)) => {
                    // Constraint (5): same physical RPB, strictly later pass.
                    if placed_rpb != rpb_idx || pass <= last_pass {
                        self.rollback(mem_undo);
                        return None;
                    }
                    self.mem_placed[mi] = Some((rpb_idx, pass));
                    mem_undo.push(MemUndo::Replaced(m, (placed_rpb, last_pass)));
                }
                None => {
                    let size = self.sizes[mi];
                    // First-fit over the free partitions.
                    let spans = self.mem_spans[rpb_idx]..self.mem_spans[rpb_idx + 1];
                    match self.mem_free[spans.clone()].iter().position(|&p| p >= size) {
                        Some(part) => {
                            let at = spans.start + part;
                            self.mem_free[at] -= size;
                            self.mem_placed[mi] = Some((rpb_idx, pass));
                            mem_undo.push(MemUndo::Taken(m, at, size));
                        }
                        None => {
                            self.rollback(mem_undo);
                            return None;
                        }
                    }
                }
            }
        }
        self.te_used[rpb_idx] += req.entries;
        self.free_total -= req.entries;
        Some(Undo { rpb_idx, entries: req.entries, mem: mem_undo })
    }

    fn unplace(&mut self, undo: Undo) {
        self.te_used[undo.rpb_idx] -= undo.entries;
        self.free_total += undo.entries;
        self.rollback(undo.mem);
    }

    fn rollback(&mut self, undo: Vec<MemUndo>) {
        for u in undo.into_iter().rev() {
            self.undo_mem(u);
        }
    }

    fn undo_mem(&mut self, u: MemUndo) {
        match u {
            MemUndo::Taken(m, at, size) => {
                let mi = usize::from(m);
                self.mem_free[at] += size;
                self.mem_placed[mi] = None;
            }
            MemUndo::Replaced(m, prev) => {
                let mi = usize::from(m);
                self.mem_placed[mi] = Some(prev);
            }
        }
    }
}

struct Undo {
    rpb_idx: usize,
    entries: usize,
    mem: Vec<MemUndo>,
}

enum MemUndo {
    /// Memory `m` took `size` from the span at this index of `mem_free`.
    Taken(u16, usize, u32),
    Replaced(u16, (usize, u8)),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{lower, MemDecl};
    use p4rp_dataplane::{RPB_MEM_SIZE, RPB_TABLE_SIZE};
    use p4rp_lang::parse;

    fn ir_of(src: &str) -> ProgramIr {
        let unit = parse(src).unwrap();
        let mems: Vec<MemDecl> = unit
            .annotations
            .iter()
            .map(|a| MemDecl { name: a.name.clone(), size: a.size as u32 })
            .collect();
        lower(&unit.programs[0], &mems).unwrap()
    }

    fn full_view() -> AllocView {
        AllocView::unconstrained(RPB_TABLE_SIZE, RPB_MEM_SIZE)
    }

    const CACHE: &str = r#"
@ mem1 1024
program cache(<hdr.udp.dst_port, 7777, 0xffff>) {
    EXTRACT(hdr.nc.op, har);
    EXTRACT(hdr.nc.key1, sar);
    EXTRACT(hdr.nc.key2, mar);
    BRANCH:
    case(<har, 0, 0xffffffff>, <sar, 0x8888, 0xffffffff>, <mar, 0, 0xffffffff>) {
        RETURN;
        LOADI(mar, 512);
        MEMREAD(mem1);
        MODIFY(hdr.nc.value, sar);
    };
    case(<har, 1, 0xffffffff>, <sar, 0x8888, 0xffffffff>, <mar, 0, 0xffffffff>) {
        DROP;
        LOADI(mar, 512);
        EXTRACT(hdr.nc.value, sar);
        MEMWRITE(mem1);
    };
    FORWARD(32);
}
"#;

    #[test]
    fn cache_allocates_without_recirculation_on_empty_plane() {
        let ir = ir_of(CACHE);
        let alloc = allocate(&ir, &full_view(), &AllocConfig::default()).unwrap();
        assert_eq!(alloc.x.len(), 10);
        assert_eq!(alloc.passes, 1, "10 levels fit one pass: {:?}", alloc.x);
        // Strictly increasing.
        for w in alloc.x.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Forwarding levels landed in ingress RPBs.
        let (reqs, _) = slot_requirements(&ir);
        for (slot, req) in reqs.iter().enumerate() {
            if req.is_forwarding {
                assert!(LogicalRpb::from_index(alloc.x[slot]).is_ingress());
            }
        }
        assert_eq!(alloc.regions.len(), 1, "mem1 is placed");
    }

    #[test]
    fn forwarding_constraint_forces_ingress() {
        // A long prefix pushes the DROP deep; it must still land in an
        // ingress RPB of some pass.
        let mut body = String::new();
        for i in 0..12 {
            body.push_str(&format!("LOADI(har, {i});\n"));
        }
        body.push_str("DROP;\n");
        let src = format!("program p(<f,1,1>) {{ {body} }}");
        let ir = ir_of(&src);
        let alloc = allocate(&ir, &full_view(), &AllocConfig::default()).unwrap();
        let last = *alloc.x.last().unwrap();
        assert!(LogicalRpb::from_index(last).is_ingress());
        assert_eq!(alloc.passes, 2, "forwarding after depth 12 needs a second pass");
    }

    #[test]
    fn same_memory_twice_requires_recirculation() {
        let src = r#"
@ m 256
program p(<f,1,1>) {
    LOADI(mar, 0);
    MEMREAD(m);
    LOADI(mar, 1);
    MEMWRITE(m);
}
"#;
        let ir = ir_of(src);
        let alloc = allocate(&ir, &full_view(), &AllocConfig::default()).unwrap();
        assert_eq!(alloc.passes, 2, "constraint (5): same vmem → same RPB, next pass");
        let (reqs, _) = slot_requirements(&ir);
        let mem_slots: Vec<usize> = reqs
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.mems.is_empty())
            .map(|(i, _)| i)
            .collect();
        let r0 = LogicalRpb::from_index(alloc.x[mem_slots[0]]);
        let r1 = LogicalRpb::from_index(alloc.x[mem_slots[1]]);
        assert_eq!(r0.rpb(), r1.rpb());
        assert!(r1.pass() > r0.pass());
    }

    #[test]
    fn offset_and_access_share_a_pass() {
        let src = "@ m 64\nprogram p(<f,1,1>) { LOADI(mar, 0); MEMREAD(m); }";
        let ir = ir_of(src);
        let (_, pairs) = slot_requirements(&ir);
        assert_eq!(pairs, vec![(1, 2)]);
        let alloc = allocate(&ir, &full_view(), &AllocConfig::default()).unwrap();
        assert_eq!(
            LogicalRpb::from_index(alloc.x[1]).pass(),
            LogicalRpb::from_index(alloc.x[2]).pass()
        );
    }

    /// The rejection's reason; a window-proved rejection explores nothing,
    /// so the same call with a zero node budget must reject the same way.
    fn rejection(ir: &ProgramIr, view: &AllocView, cfg: AllocConfig) -> String {
        let reason = |cfg: &AllocConfig| match allocate(ir, view, cfg) {
            Err(CompileError::AllocationFailed { reason }) => reason,
            other => panic!("expected AllocationFailed, got {other:?}"),
        };
        let r = reason(&cfg);
        assert_eq!(r, reason(&AllocConfig { node_budget: 0, ..cfg }), "decided without search");
        r
    }

    #[test]
    fn memory_exhaustion_names_the_level_and_the_partition() {
        let ir = ir_of(CACHE);
        let mut view = full_view();
        for parts in &mut view.mem_free {
            *parts = vec![(0, 512)]; // less than the requested 1024 everywhere
        }
        assert_eq!(
            rejection(&ir, &view, AllocConfig::default()),
            "level 8: no RPB with ≥ 2 free entries and a free partition of ≥ 1024 buckets for `mem1`"
        );
    }

    #[test]
    fn entry_exhaustion_names_the_level_and_the_entries() {
        let ir = ir_of(CACHE);
        let mut view = full_view();
        for te in &mut view.te_free {
            *te = 1;
        }
        assert_eq!(
            rejection(&ir, &view, AllocConfig::default()),
            "level 3: no RPB with ≥ 2 free entries"
        );
    }

    #[test]
    fn forwarding_exhaustion_names_the_ingress_rpbs() {
        let ir = ir_of("program p(<f,1,1>) { LOADI(har, 1); DROP; }");
        let mut view = full_view();
        for te in &mut view.te_free[..p4rp_dataplane::NUM_INGRESS_RPBS] {
            *te = 0; // the egress RPBs stay free, and cannot forward
        }
        assert_eq!(
            rejection(&ir, &view, AllocConfig::default()),
            "level 1 (forwarding): no ingress RPB with ≥ 1 free entries"
        );
    }

    #[test]
    fn linked_levels_without_a_common_rpb_are_rejected() {
        // Level 0 reads `m` and must forward (ingress only); level 1 reads
        // `m` again where only an egress RPB is left to it.
        let level =
            |is_forwarding| SlotReqI { entries: 1, mems: vec![0], is_forwarding, free: false };
        let err = Model::new(&[level(true), level(false)], Vec::new(), vec![0b11, 1 << 12], 44);
        assert!(matches!(
            err,
            Err(CompileError::AllocationFailed { reason })
                if reason == "levels 0 and 1 access one memory (5) but no RPB suits both"
        ));
    }

    #[test]
    fn an_empty_window_is_rejected_without_search() {
        // Twelve levels, then a DROP: without recirculation the 13th level
        // starts at the first egress RPB and no ingress RPB follows it.
        let mut body = String::new();
        for i in 0..12 {
            body.push_str(&format!("LOADI(har, {i});\n"));
        }
        let ir = ir_of(&format!("program p(<f,1,1>) {{ {body} DROP; }}"));
        let cfg = AllocConfig { max_recirc: 0, ..Default::default() };
        let reason = rejection(&ir, &full_view(), cfg);
        assert!(reason.starts_with("level 12: ordering (1), same-memory (5)"), "{reason}");
    }

    #[test]
    fn budget_exhaustion_is_counted_not_silent() {
        // 24 one-entry levels wrap into the second pass. From x_1 = 1 the
        // 23rd level lands on RPB 1 again, which has a single free entry:
        // that pin backtracks once (26 nodes), every other pin walks
        // straight to its leaf (24 nodes).
        let mut body = String::new();
        for i in 0..24 {
            body.push_str(&format!("LOADI(har, {i});\n"));
        }
        let ir = ir_of(&format!("program p(<f,1,1>) {{ {body} }}"));
        let mut view = full_view();
        view.te_free[0] = 1;
        let ratio = AllocConfig { objective: Objective::Ratio, ..Default::default() };
        let exact = allocate(&ir, &view, &ratio).unwrap();
        assert_eq!(exact.truncated_solves, 0);
        let cut = allocate(&ir, &view, &AllocConfig { node_budget: 25, ..ratio }).unwrap();
        assert_eq!(cut.truncated_solves, 1, "only the x_1 = 1 solve runs out");
        assert_eq!(cut.x, exact.x, "the winning pin was solved in full");
    }

    #[test]
    fn too_deep_program_rejected() {
        let mut body = String::new();
        for i in 0..45 {
            body.push_str(&format!("LOADI(har, {i});\n"));
        }
        let src = format!("program p(<f,1,1>) {{ {body} }}");
        let ir = ir_of(&src);
        assert!(matches!(
            allocate(&ir, &full_view(), &AllocConfig::default()),
            Err(CompileError::TooDeep { depth: 45, max: 44 })
        ));
    }

    #[test]
    fn objectives_trade_x1_for_xl() {
        let ir = ir_of(CACHE);
        let view = full_view();
        let f2 = allocate(&ir, &view, &AllocConfig { objective: Objective::LastOnly, ..Default::default() })
            .unwrap();
        let f1 = allocate(&ir, &view, &AllocConfig::default()).unwrap();
        let f3 = allocate(&ir, &view, &AllocConfig { objective: Objective::Ratio, ..Default::default() })
            .unwrap();
        let h = allocate(
            &ir,
            &view,
            &AllocConfig { objective: Objective::Hierarchical, ..Default::default() },
        )
        .unwrap();
        // f2 minimizes x_L outright.
        assert!(f2.x.last() <= f1.x.last());
        assert!(f2.x.last() <= f3.x.last());
        // Hierarchical keeps f2's x_L but pushes x_1 as high as possible.
        assert_eq!(h.x.last(), f2.x.last());
        assert!(h.x[0] >= f2.x[0]);
        // f1/f3 start later (larger x_1) than plain f2's greedy start.
        assert!(f1.x[0] >= f2.x[0]);
        assert!(f3.x[0] >= f2.x[0]);
        // Ratio explores the most nodes (slowest scheme, Figure 12).
        assert!(f3.nodes_explored >= f1.nodes_explored);
    }

    #[test]
    fn cumulative_entries_across_passes_respected() {
        // Two accesses to the same vmem force both passes through one
        // physical RPB; its entry budget must absorb both levels.
        let src = r#"
@ m 64
program p(<f,1,1>) {
    LOADI(mar, 0);
    MEMREAD(m);
    LOADI(mar, 1);
    MEMWRITE(m);
}
"#;
        let ir = ir_of(src);
        let mut view = full_view();
        // Every RPB can hold only one entry — the shared RPB needs 2.
        for te in &mut view.te_free {
            *te = 1;
        }
        assert!(allocate(&ir, &view, &AllocConfig::default()).is_err());
    }

    #[test]
    fn r0_disables_recirculation() {
        let src = r#"
@ m 256
program p(<f,1,1>) {
    LOADI(mar, 0);
    MEMREAD(m);
    LOADI(mar, 1);
    MEMWRITE(m);
}
"#;
        let ir = ir_of(src);
        let cfg = AllocConfig { max_recirc: 0, ..Default::default() };
        // Same-vmem-twice needs a second pass; with R = 0 it must fail.
        assert!(allocate(&ir, &full_view(), &cfg).is_err());
    }

    #[test]
    fn two_memories_can_share_an_rpb_or_split() {
        let src = r#"
@ a 1024
@ b 1024
program p(<f,1,1>) {
    HASH_5_TUPLE_MEM(a);
    MEMADD(a);
    HASH_5_TUPLE_MEM(b);
    MEMADD(b);
}
"#;
        let ir = ir_of(src);
        let alloc = allocate(&ir, &full_view(), &AllocConfig::default()).unwrap();
        assert_eq!(alloc.passes, 1);
        assert_eq!(alloc.regions.len(), 2);
        assert_ne!(
            alloc.regions[0].0, alloc.regions[1].0,
            "sequential accesses → distinct RPBs"
        );
    }

    #[test]
    fn regions_replay_the_first_fit_in_name_order() {
        // Both memories are first accessed at one level; `z_small` is
        // declared first, `a_big` is placed first. Every RPB is free at
        // [0, 128) and [136, 200).
        let ir = ir_of(
            "@ a_big 128\n@ z_small 64\nprogram sib(<f,1,1>) { LOADI(mar, 0); BRANCH: \
             case(<har, 0, 0xffffffff>) { MEMREAD(z_small); } \
             case(<har, 1, 0xffffffff>) { MEMREAD(a_big); }; FORWARD(1); }",
        );
        let mut view = full_view();
        for spans in &mut view.mem_free {
            *spans = vec![(0, 128), (136, 64)];
        }
        let alloc = allocate(&ir, &view, &AllocConfig::default()).unwrap();
        let names: Vec<&str> = ir.memories.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["z_small", "a_big"]);
        let [(z_rpb, z_off, 64), (a_rpb, 0, 128)] = alloc.regions[..] else {
            panic!("{:?}", alloc.regions);
        };
        assert_eq!(
            (z_rpb, z_off),
            (a_rpb, 136),
            "one level, one RPB, first fit in name order"
        );
    }
}
