//! The naive reference allocator: the §4.3 branch-and-bound exactly as
//! first written, with `String`-keyed maps cloned per DFS node and no
//! pruning beyond the `x_L` bound.
//!
//! `p4rp_compiler::alloc` solves the same model inside propagated
//! per-level windows, with interned memory ids, a suffix-capacity prune
//! and free-slot dominance. This module is the semantic authority the
//! `alloc_equivalence` suite checks it against (same feasibility verdict,
//! equal objective). It is test code: it shares only the model's input
//! and output types with the solver it judges — no prechecks, no
//! domains — so an infeasible program is found infeasible by search.

use p4runpro::p4rp_compiler::alloc::{
    slot_requirements, AllocConfig, AllocView, Allocation, Objective, SlotReq,
};
use p4runpro::p4rp_compiler::errors::{CompileError, CompileResult};
use p4runpro::p4rp_compiler::ir::ProgramIr;
use p4runpro::p4rp_dataplane::{LogicalRpb, RpbId, NUM_RPBS};
use std::collections::HashMap;

/// Solve with the reference DFS.
pub fn solve(ir: &ProgramIr, view: &AllocView, cfg: &AllocConfig) -> CompileResult<Allocation> {
    let (reqs, pairs) = slot_requirements(ir);
    let (reqs, pairs) = (&reqs[..], &pairs[..]);
    let max_index = LogicalRpb::max_index(cfg.max_recirc);
    let l = reqs.len();

    let mut solver = Solver {
        budget: cfg.node_budget,
        reqs,
        pairs,
        sizes: ir.memories.iter().map(|m| (m.name.clone(), m.size)).collect(),
        max_index,
        te_free: view.te_free.clone(),
        te_used: vec![0; NUM_RPBS],
        mem_free: view
            .mem_free
            .iter()
            .map(|s| s.iter().map(|&(_, len)| len).collect())
            .collect(),
        mem_placed: HashMap::new(),
        nodes: 0,
        truncated_solves: 0,
    };

    let best = match cfg.objective {
        Objective::LastOnly => solver.search_min_xl(None, None).map(|(x, xl)| (x, f64::from(xl))),
        Objective::Hierarchical => {
            // Phase 1: minimal x_L. Phase 2: maximal x_1 holding x_L.
            match solver.search_min_xl(None, None) {
                None => None,
                Some((x0, xl)) => {
                    let mut best: Option<(Vec<u16>, f64)> = Some((x0, f64::from(xl)));
                    for x1 in (2..=max_index.saturating_sub(l as u16 - 1)).rev() {
                        if let Some((x, got_xl)) = solver.search_min_xl(Some(x1), Some(xl)) {
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
            let mut best: Option<(Vec<u16>, f64)> = None;
            // Larger x_1 reduces the objective; iterate descending so the
            // bound prunes early.
            for x1 in (1..=max_index - (l as u16 - 1)).rev() {
                // Best conceivable for this x_1: x_L = x_1 + L − 1.
                let lower = alpha * f64::from(x1 + l as u16 - 1) - beta * f64::from(x1);
                if let Some((_, score)) = &best {
                    if lower >= *score {
                        continue;
                    }
                }
                if let Some((x, xl)) = solver.search_min_xl(Some(x1), None) {
                    let score = alpha * f64::from(xl) - beta * f64::from(x1);
                    if best.as_ref().is_none_or(|(_, s)| score < *s) {
                        best = Some((x, score));
                    }
                }
            }
            best
        }
        Objective::Ratio => {
            // Nonlinear: full enumeration over x_1, no bound pruning — the
            // deliberate cost the paper measures in Figure 12.
            let mut best: Option<(Vec<u16>, f64)> = None;
            for x1 in 1..=max_index - (l as u16 - 1) {
                if let Some((x, xl)) = solver.search_min_xl(Some(x1), None) {
                    let score = f64::from(xl) / f64::from(x1);
                    if best.as_ref().is_none_or(|(_, s)| score < *s) {
                        best = Some((x, score));
                    }
                }
            }
            best
        }
    };

    let nodes = solver.nodes;
    match best {
        None => Err(CompileError::AllocationFailed {
            reason: format!("no feasible placement for {} levels", l),
        }),
        Some((x, objective_value)) => {
            let regions = solver.placement_for(&x, ir, view);
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
                nodes_explored: nodes,
                truncated_solves: solver.truncated_solves,
            })
        }
    }
}

/// Every feasible pin of the `f1` objective with the score the reference
/// gives it, `(x_1, α·x_L − β·x_1)` at the pin's least `x_L`, in ascending
/// `x_1`.
pub fn pin_scores(ir: &ProgramIr, view: &AllocView, cfg: &AllocConfig) -> Vec<(u16, f64)> {
    let Objective::WeightedDiff { alpha, beta } = cfg.objective else {
        panic!("pin scores are an f1 notion");
    };
    let (reqs, pairs) = slot_requirements(ir);
    let max_index = LogicalRpb::max_index(cfg.max_recirc);
    let l = reqs.len() as u16;
    let mut solver = Solver {
        budget: cfg.node_budget,
        reqs: &reqs,
        pairs: &pairs,
        sizes: ir.memories.iter().map(|m| (m.name.clone(), m.size)).collect(),
        max_index,
        te_free: view.te_free.clone(),
        te_used: vec![0; NUM_RPBS],
        mem_free: view
            .mem_free
            .iter()
            .map(|s| s.iter().map(|&(_, len)| len).collect())
            .collect(),
        mem_placed: HashMap::new(),
        nodes: 0,
        truncated_solves: 0,
    };
    (1..=max_index - (l - 1))
        .filter_map(|x1| {
            let (_, xl) = solver.search_min_xl(Some(x1), None)?;
            Some((x1, alpha * f64::from(xl) - beta * f64::from(x1)))
        })
        .collect()
}

struct Solver<'a> {
    budget: u64,
    reqs: &'a [SlotReq],
    pairs: &'a [(usize, usize)],
    sizes: HashMap<String, u32>,
    max_index: u16,
    te_free: Vec<usize>,
    te_used: Vec<usize>,
    mem_free: Vec<Vec<u32>>,
    /// vmem → (physical rpb index 0-based, last pass used).
    mem_placed: HashMap<String, (usize, u8)>,
    nodes: u64,
    /// Inner solves that ran into `budget`.
    truncated_solves: u64,
}

impl Solver<'_> {
    /// Branch-and-bound minimizing `x_L`, optionally pinning `x_1` and
    /// bounding `x_L`. Returns the best assignment found.
    fn search_min_xl(&mut self, x1: Option<u16>, xl_cap: Option<u16>) -> Option<(Vec<u16>, u16)> {
        let mut best: Option<(Vec<u16>, u16)> = None;
        let mut x = vec![0u16; self.reqs.len()];
        let mut bound = xl_cap.map(|c| c + 1).unwrap_or(self.max_index + 1);
        let deadline = self.nodes.saturating_add(self.budget);
        self.dfs(0, 0, x1, &mut x, &mut best, &mut bound, deadline);
        self.truncated_solves += u64::from(self.nodes >= deadline);
        best
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &mut self,
        slot: usize,
        prev: u16,
        x1: Option<u16>,
        x: &mut Vec<u16>,
        best: &mut Option<(Vec<u16>, u16)>,
        bound: &mut u16,
        deadline: u64,
    ) {
        if self.nodes >= deadline {
            return;
        }
        let l = self.reqs.len();
        if slot == l {
            let xl = x[l - 1];
            if best.as_ref().is_none_or(|(_, b)| xl < *b) {
                *best = Some((x.clone(), xl));
                *bound = xl;
            }
            return;
        }
        let remaining = (l - 1 - slot) as u16;
        let lo = if slot == 0 { x1.unwrap_or(1) } else { prev + 1 };
        let hi_struct = self.max_index - remaining;
        // Bound: x_L ≥ x_slot + remaining, so x_slot must stay below
        // bound − remaining to improve.
        let hi_bound = bound.saturating_sub(remaining + 1);
        let hi = hi_struct.min(hi_bound);
        let hi = if slot == 0 && x1.is_some() { lo.min(hi) } else { hi };
        if lo > hi {
            return;
        }
        for cand in lo..=hi {
            if slot == 0 {
                if let Some(pin) = x1 {
                    if cand != pin {
                        continue;
                    }
                }
            }
            self.nodes += 1;
            if let Some(undo) = self.try_place(slot, cand, x) {
                x[slot] = cand;
                self.dfs(slot + 1, cand, x1, x, best, bound, deadline);
                x[slot] = 0;
                self.unplace(undo);
            }
        }
    }

    /// Attempt to place `slot` at logical index `cand`; on success return
    /// the undo record.
    fn try_place(&mut self, slot: usize, cand: u16, x: &[u16]) -> Option<Undo> {
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
        for &(a, b) in self.pairs {
            if b == slot {
                let xa = x[a];
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
        for vmem in &req.mems {
            match self.mem_placed.get(vmem).copied() {
                Some((placed_rpb, last_pass)) => {
                    // Constraint (5): same physical RPB, strictly later pass.
                    if placed_rpb != rpb_idx || pass <= last_pass {
                        for u in mem_undo.drain(..) {
                            self.undo_mem(u);
                        }
                        return None;
                    }
                    let prev = self.mem_placed.insert(vmem.clone(), (rpb_idx, pass));
                    mem_undo.push(MemUndo::Replaced(vmem.clone(), prev.unwrap()));
                }
                None => {
                    let size = self.sizes[vmem];
                    // First-fit over the free partitions.
                    match self.mem_free[rpb_idx].iter().position(|&p| p >= size) {
                        Some(part) => {
                            self.mem_free[rpb_idx][part] -= size;
                            self.mem_placed.insert(vmem.clone(), (rpb_idx, pass));
                            mem_undo.push(MemUndo::Taken(vmem.clone(), rpb_idx, part, size));
                        }
                        None => {
                            for u in mem_undo.drain(..) {
                                self.undo_mem(u);
                            }
                            return None;
                        }
                    }
                }
            }
        }
        self.te_used[rpb_idx] += req.entries;
        Some(Undo { rpb_idx, entries: req.entries, mem: mem_undo })
    }

    fn unplace(&mut self, undo: Undo) {
        self.te_used[undo.rpb_idx] -= undo.entries;
        for u in undo.mem {
            self.undo_mem(u);
        }
    }

    fn undo_mem(&mut self, u: MemUndo) {
        match u {
            MemUndo::Taken(vmem, rpb, part, size) => {
                self.mem_free[rpb][part] += size;
                self.mem_placed.remove(&vmem);
            }
            MemUndo::Replaced(vmem, prev) => {
                self.mem_placed.insert(vmem, prev);
            }
        }
    }

    /// The region of each of `ir.memories` under an assignment: the
    /// search's first fit again, level by level, carving each memory from
    /// the front of a copy of the view's spans.
    fn placement_for(&self, x: &[u16], ir: &ProgramIr, view: &AllocView) -> Vec<(RpbId, u32, u32)> {
        let mut spans = view.mem_free.clone();
        let mut placed: HashMap<&str, (RpbId, u32, u32)> = HashMap::new();
        for (slot, req) in self.reqs.iter().enumerate() {
            let rpb = LogicalRpb::from_index(x[slot]).rpb();
            for vmem in &req.mems {
                if placed.contains_key(vmem.as_str()) {
                    continue;
                }
                let size = self.sizes[vmem];
                let span = spans[usize::from(rpb.0) - 1]
                    .iter_mut()
                    .find(|(_, len)| *len >= size)
                    .expect("the search placed it");
                placed.insert(vmem, (rpb, span.0, size));
                *span = (span.0 + size, span.1 - size);
            }
        }
        ir.memories
            .iter()
            .map(|m| placed[m.name.as_str()])
            .collect()
    }
}

struct Undo {
    rpb_idx: usize,
    entries: usize,
    mem: Vec<MemUndo>,
}

enum MemUndo {
    Taken(String, usize, usize, u32),
    Replaced(String, (usize, u8)),
}
