//! ActiveRMT baseline (Das & Snoeren, SIGCOMM '23).
//!
//! ActiveRMT runs *active programs* — capsule-carried instruction sequences
//! — over a memory-centric data plane: every stage exposes a register
//! array, and allocation is purely about assigning memory objects to
//! stages. Reproduced here:
//!
//! * the **fair worst-fit allocator with elastic remapping**: candidate
//!   stage combinations are scored by free memory (worst-fit); when space
//!   runs out, *elastic* programs' allocations are halved and remapped —
//!   a pass whose cost scans every installed program, which is why
//!   ActiveRMT's allocation delay grows with the number of allocated
//!   programs and with finer memory granularity (Figure 7);
//! * the **update-delay model**: installing an active program rewrites
//!   per-stage instruction memory and initializes its memory objects, a
//!   roughly constant ≈200 ms (Table 1's `*` rows) plus remap traffic;
//! * the **data plane profile** for the resource/power comparison
//!   (Figure 10, Table 2): 24 gress-stages of instruction tables + maxed
//!   register memory and SALUs, plus the capsule-header throughput tax.

use rmt_sim::clock::Nanos;
use rmt_sim::error::SimResult;
use rmt_sim::phv::FieldTable;
use rmt_sim::pipeline::{Gress, Pipeline, StageLimits};
use rmt_sim::resources::ChipReport;
use rmt_sim::salu::RegArray;
use rmt_sim::table::{KeySpec, MatchKind, Table};
use rmt_sim::action::{ActionDef, AluFunc, Operand, VliwOp};
use std::time::{Duration, Instant};

/// Stages available to active programs (the ActiveRMT prototype spans both
/// gresses of its Tofino).
pub(crate) const ACTIVE_STAGES: usize = 20;
/// Register-array buckets per stage (matched to the paper's comparison
/// setup: "we enable ActiveRMT's least constraint allocation model with a
/// memory size of 65,536").
pub(crate) const STAGE_MEM: u32 = 65_536;

/// A memory demand presented by one active program.
#[derive(Debug, Clone, Copy)]
pub struct ActiveDemand {
    /// Total buckets requested.
    pub mem: u32,
    /// Distinct memory accesses (objects placed in distinct stages).
    pub accesses: usize,
    /// Elastic programs may be shrunk to make room for newcomers.
    pub elastic: bool,
}

/// One installed program's placement.
#[derive(Debug, Clone)]
struct ActiveAlloc {
    /// `(stage, buckets)` spans.
    spans: Vec<(usize, u32)>,
    elastic: bool,
}

/// Outcome of one allocation attempt.
#[derive(Debug, Clone)]
pub struct ActiveReport {
    /// Id.
    pub id: u64,
    /// Wall-clock allocation-scheme computation.
    pub alloc_wall: Duration,
    /// Modeled data plane update latency.
    pub update_delay: Nanos,
    /// Buckets moved while remapping elastic programs.
    pub remapped_buckets: u64,
}

/// The fair worst-fit allocator.
#[derive(Debug, Clone)]
pub struct ActiveRmtAllocator {
    free: Vec<u32>,
    progs: Vec<ActiveAlloc>,
    next_id: u64,
    /// Allocation granularity in buckets (finer granularity → more
    /// candidate work, Figure 7(b)).
    pub granularity: u32,
}

impl Default for ActiveRmtAllocator {
    fn default() -> Self {
        ActiveRmtAllocator::new(256)
    }
}

impl ActiveRmtAllocator {
    /// Construct with defaults appropriate to the type.
    pub fn new(granularity: u32) -> ActiveRmtAllocator {
        ActiveRmtAllocator {
            free: vec![STAGE_MEM; ACTIVE_STAGES],
            progs: Vec::new(),
            next_id: 1,
            granularity: granularity.max(1),
        }
    }

    /// Memory utilization across all stages.
    pub fn memory_utilization(&self) -> f64 {
        let free: u64 = self.free.iter().map(|&f| u64::from(f)).sum();
        1.0 - free as f64 / (u64::from(STAGE_MEM) * ACTIVE_STAGES as u64) as f64
    }

    fn round_up(&self, v: u32) -> u32 {
        v.div_ceil(self.granularity) * self.granularity
    }

    /// The worst-fit score of a candidate stage set, recomputed by
    /// scanning every installed program (the O(programs) inner loop that
    /// makes ActiveRMT's delay grow, Figure 7(a)).
    fn score(&self, stages: &[usize]) -> u64 {
        let mut score = 0u64;
        for &s in stages {
            // Free memory from first principles: total minus every
            // program's span in this stage.
            let mut used = 0u64;
            for p in &self.progs {
                for (ps, len) in &p.spans {
                    if *ps == s {
                        used += u64::from(*len);
                    }
                }
            }
            score += u64::from(STAGE_MEM).saturating_sub(used);
        }
        score
    }

    /// Try to allocate `demand`. Returns `None` when even elastic
    /// remapping cannot make room.
    pub fn allocate(&mut self, demand: ActiveDemand) -> Option<ActiveReport> {
        let t0 = Instant::now();
        let per_access = self.round_up(demand.mem.div_ceil(demand.accesses.max(1) as u32));
        let mut remapped: u64 = 0;
        // Remapping is speculative: restore everything if the allocation
        // ultimately fails, so a failed newcomer cannot shrink incumbents.
        let snapshot = (self.free.clone(), self.progs.clone());

        loop {
            // Enumerate allocation *strategies*: a stage window × a span
            // size, sizes stepping down from the fair share to the
            // granularity (finer granularity ⇒ more strategies ⇒ slower,
            // Figure 7(b)). Each strategy is scored by the least-constraint
            // model: worst-fit free space minus how much it squeezes the
            // installed elastic programs — recomputed by scanning every
            // program (delay grows with installed count, Figure 7(a)).
            let mut best: Option<(u64, Vec<usize>, u32)> = None;
            if demand.accesses <= ACTIVE_STAGES {
                for start in 0..=(ACTIVE_STAGES - demand.accesses) {
                    let stages: Vec<usize> = (start..start + demand.accesses).collect();
                    // Elastic programs take the worst-fit maximum; the
                    // strategy space steps from that maximum down to the
                    // granularity. Inelastic programs get exactly their
                    // fair share.
                    let window_max = stages.iter().map(|&s| self.free[s]).min().unwrap_or(0)
                        / self.granularity
                        * self.granularity;
                    let top = if demand.elastic { window_max.max(per_access) } else { per_access };
                    let mut size = top.min(window_max);
                    while size >= self.granularity && size >= per_access.min(self.granularity) {
                        if stages.iter().all(|&s| self.free[s] >= size) {
                            // Larger spans strictly preferred (worst-fit);
                            // the least-constraint score breaks ties.
                            let score =
                                (u64::from(size) << 32) | (self.score(&stages) >> 8);
                            if best.as_ref().is_none_or(|(b, _, _)| score > *b) {
                                best = Some((score, stages.clone(), size));
                            }
                        }
                        if !demand.elastic || size <= self.granularity {
                            break;
                        }
                        size -= self.granularity;
                    }
                }
            }
            if let Some((_, stages, size)) = best {
                let id = self.next_id;
                self.next_id += 1;
                let spans: Vec<(usize, u32)> = stages.iter().map(|&s| (s, size)).collect();
                for (s, len) in &spans {
                    self.free[*s] -= *len;
                }
                self.progs.push(ActiveAlloc { spans, elastic: demand.elastic });
                let update_delay = self.update_delay_model(demand, remapped);
                return Some(ActiveReport {
                    id,
                    alloc_wall: t0.elapsed(),
                    update_delay,
                    remapped_buckets: remapped,
                });
            }

            // Remap: halve the largest elastic spans until something frees
            // up (fair worst-fit). Scans all programs; repeated rounds make
            // the delay superlinear as the plane fills.
            let mut shrunk = false;
            for p in &mut self.progs {
                if !p.elastic {
                    continue;
                }
                for (s, len) in &mut p.spans {
                    // Halve, rounded to granularity, never below one
                    // granule (the minimum elastic allocation).
                    let take = (*len / 2) / self.granularity * self.granularity;
                    if take > 0 && *len - take >= self.granularity {
                        *len -= take;
                        self.free[*s] += take;
                        remapped += u64::from(take);
                        shrunk = true;
                    }
                }
            }
            if !shrunk {
                let (free, progs) = snapshot;
                self.free = free;
                self.progs = progs;
                return None;
            }
        }
    }

    /// ActiveRMT's update-delay model: installing the capsule program's
    /// instruction image is a near-constant cost (the `*` rows of Table 1
    /// sit at ≈195–230 ms regardless of program), plus memory-object
    /// initialization and any remap traffic.
    fn update_delay_model(&self, demand: ActiveDemand, remapped: u64) -> Nanos {
        let base = Nanos::from_micros(185_000);
        let per_access = Nanos::from_micros(9_000);
        let per_bucket_moved = Nanos(300); // DMA-style rewrite per bucket
        Nanos(
            base.0
                + per_access.0 * demand.accesses as u64
                + per_bucket_moved.0 * remapped,
        )
    }
}

/// Build the ActiveRMT data plane profile for the Figure 10 / Table 2
/// comparison: per gress-stage an instruction table (ternary on the
/// capsule opcode/flags), a maximal register array, and the instruction
/// VLIW repertoire.
pub fn build_profile() -> SimResult<ChipReport> {
    let mut ft = FieldTable::new();
    let opcode = ft.register("capsule.opcode", 8)?;
    let flags = ft.register("capsule.flags", 16)?;
    let arg = ft.register("capsule.arg", 32)?;
    let acc = ft.register("capsule.acc", 32)?;
    // The capsule itself consumes PHV: instruction window + args.
    for i in 0..10 {
        ft.register(&format!("capsule.instr{i}"), 32)?;
    }

    let limits = StageLimits::default();
    let mut ingress = Pipeline::new(Gress::Ingress, 12, limits);
    let mut egress = Pipeline::new(Gress::Egress, 12, limits);

    for pipe in [&mut ingress, &mut egress] {
        for idx in 0..pipe.num_stages() {
            let stage = pipe.stage_mut(idx)?;
            // ~30 active instructions, each a small VLIW program; memory
            // instructions drive the stage SALU.
            let mut actions = Vec::new();
            for i in 0..30 {
                actions.push(ActionDef {
                    name: format!("instr_{i}"),
                    ops: vec![
                        VliwOp { dst: acc, func: AluFunc::Add, a: Operand::Field(acc), b: Operand::Field(arg) },
                        VliwOp::set(arg, Operand::Arg(0)),
                        VliwOp { dst: flags, func: AluFunc::Or, a: Operand::Field(flags), b: Operand::Const(1) },
                    ],
                    hash: Some(rmt_sim::action::HashCall {
                        spec: rmt_sim::hash::CRC16_BUYPASS,
                        input: rmt_sim::action::HashInput::Fields(vec![acc]),
                        dst: arg,
                        mask: None,
                    }),
                    salu: Some(rmt_sim::action::SaluCall {
                        array: 0,
                        addr: Operand::Field(arg),
                        operand: Operand::Field(acc),
                        instr: rmt_sim::salu::SaluInstr::READ,
                        alt_instr: None,
                        select_flag: None,
                        output: Some(acc),
                    }),
                });
            }
            stage.add_table(Table::new(
                format!("active_{idx}"),
                KeySpec::new(vec![(opcode, MatchKind::Ternary), (flags, MatchKind::Ternary)]),
                actions,
                4096,
            ));
            // Two memory objects per stage: double arrays, double SALUs.
            stage.add_array(RegArray::new(format!("obj_a_{idx}"), STAGE_MEM as usize));
            stage.add_array(RegArray::new(format!("obj_b_{idx}"), STAGE_MEM as usize));
        }
    }
    Ok(ChipReport::build(&ft, &ingress, &egress))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(mem: u32) -> ActiveDemand {
        ActiveDemand { mem, accesses: 3, elastic: true }
    }

    #[test]
    fn simple_allocation_succeeds() {
        let mut a = ActiveRmtAllocator::default();
        let r = a.allocate(demand(3 * 256)).unwrap();
        assert_eq!(r.remapped_buckets, 0);
        assert!(a.memory_utilization() > 0.0);
        assert!(r.update_delay.as_millis_f64() > 150.0, "capsule install is heavy");
    }

    #[test]
    fn fills_then_remaps_then_fails() {
        let mut a = ActiveRmtAllocator::new(4096);
        let mut count = 0usize;
        let mut saw_remap = false;
        while let Some(r) = a.allocate(ActiveDemand { mem: 3 * 16384, accesses: 3, elastic: true })
        {
            count += 1;
            saw_remap |= r.remapped_buckets > 0;
            assert!(count < 10_000, "must terminate");
        }
        assert!(count > 10, "many programs fit");
        assert!(saw_remap, "elastic remapping kicked in before failure");
        assert!(a.memory_utilization() > 0.7, "remapping drives utilization high");
    }

    #[test]
    fn inelastic_programs_are_never_shrunk() {
        let mut a = ActiveRmtAllocator::new(STAGE_MEM);
        // Fill every stage window with inelastic programs.
        let mut n = 0;
        while a
            .allocate(ActiveDemand { mem: STAGE_MEM * 3, accesses: 3, elastic: false })
            .is_some()
        {
            n += 1;
        }
        assert!(n > 0);
        let util_before = a.memory_utilization();
        assert!(a.allocate(ActiveDemand { mem: STAGE_MEM * 3, accesses: 3, elastic: false }).is_none());
        assert_eq!(a.memory_utilization(), util_before, "no silent shrinking");
    }

    #[test]
    fn allocation_cost_grows_with_installed_programs() {
        // The paper's Figure 7(a): ActiveRMT's allocation time climbs as
        // programs accumulate. Compare the score-scan work early vs late
        // via wall time over batches.
        let mut a = ActiveRmtAllocator::new(64);
        let mut first = Duration::ZERO;
        let mut last = Duration::ZERO;
        for i in 0..400 {
            match a.allocate(ActiveDemand { mem: 3 * 64, accesses: 3, elastic: true }) {
                Some(r) => {
                    if i < 50 {
                        first += r.alloc_wall;
                    }
                    if i >= 350 {
                        last += r.alloc_wall;
                    }
                }
                None => break,
            }
        }
        assert!(
            last > first,
            "late allocations ({last:?}) should be slower than early ({first:?})"
        );
    }

    #[test]
    fn profile_builds_within_limits() {
        let report = build_profile().unwrap();
        // ActiveRMT's SALU/SRAM-heavy profile.
        let pct = report.utilization_pct();
        let [_phv, _hash, sram, tcam, _vliw, salu, _ltid] = pct;
        assert!(salu >= 50.0, "two memory objects per stage: {salu}");
        assert!(sram > 20.0, "register-heavy: {sram}");
        assert!(tcam < 40.0, "instruction matching is narrow: {tcam}");
    }
}

#[cfg(test)]
mod invariant_tests {
    use super::*;

    #[test]
    fn conservation_at_fine_granularity() {
        let g = 256u32;
        let mut a = ActiveRmtAllocator::new(g);
        let cap = (u64::from(STAGE_MEM) * ACTIVE_STAGES as u64 / u64::from(g)) as usize;
        let mut count = 0usize;
        while a.allocate(ActiveDemand { mem: g, accesses: 1, elastic: true }).is_some() {
            count += 1;
            if count > cap {
                let total_spans: u64 = a
                    .progs
                    .iter()
                    .flat_map(|p| p.spans.iter().map(|(_, l)| u64::from(*l)))
                    .sum();
                let free: u64 = a.free.iter().map(|&f| u64::from(f)).sum();
                panic!(
                    "count {count} > cap {cap}; spans {total_spans} free {free} total {}",
                    u64::from(STAGE_MEM) * ACTIVE_STAGES as u64
                );
            }
        }
        assert!(count <= cap);
    }

    #[test]
    fn free_accounting_never_underflows_single_access() {
        // The fig8 cache workload: accesses = 1, elastic, 256-bucket
        // demand. Run to exhaustion; debug overflow checks catch any
        // accounting slip, and live spans must never exceed capacity.
        let g = 8192u32;
        let mut a = ActiveRmtAllocator::new(g);
        let mut count = 0usize;
        while a.allocate(ActiveDemand { mem: g, accesses: 1, elastic: true }).is_some() {
            count += 1;
            assert!(count <= (u64::from(STAGE_MEM) * ACTIVE_STAGES as u64 / u64::from(g)) as usize,
                "more programs than minimum-size spans can exist");
        }
        let total_spans: u64 = a
            .progs
            .iter()
            .flat_map(|p| p.spans.iter().map(|(_, l)| u64::from(*l)))
            .sum();
        let free: u64 = a.free.iter().map(|&f| u64::from(f)).sum();
        assert_eq!(
            total_spans + free,
            u64::from(STAGE_MEM) * ACTIVE_STAGES as u64,
            "conservation of memory"
        );
    }
}
