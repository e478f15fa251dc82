//! Resource accounting — the simulator's stand-in for P4 Insight.
//!
//! Usage is computed from the *actual* provisioned pipeline configuration
//! (tables, actions, register arrays, PHV layout), which is the same
//! quantity the paper reads off P4C/P4 Insight for Figure 10. Seven
//! resources are tracked: PHV container bits, hash output bits, SRAM
//! blocks, TCAM blocks, VLIW slots, SALUs, and logical table IDs (LTIDs).

use crate::phv::FieldTable;
use crate::pipeline::{Pipeline, Stage};
use crate::table::Table;
use crate::error::{SimError, SimResult};

/// SRAM block geometry: 1024 rows × 128 bits.
pub(crate) const SRAM_BLOCK_BITS: usize = 1024 * 128;
/// TCAM block geometry: 512 entries × 44 bits.
pub(crate) const TCAM_BLOCK_ENTRIES: usize = 512;
/// `TCAM_BLOCK_WIDTH`.
pub(crate) const TCAM_BLOCK_WIDTH: usize = 44;
/// Match-overhead bits per SRAM exact-match entry (pointer + version).
const SRAM_ENTRY_OVERHEAD: usize = 20;
/// Action-data bits reserved per entry (two 64-bit immediates).
const ACTION_DATA_BITS: usize = 128;

/// Resource usage of one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageUsage {
    /// Sram blocks.
    pub sram_blocks: usize,
    /// Tcam blocks.
    pub tcam_blocks: usize,
    /// Vliw slots.
    pub vliw_slots: usize,
    /// Salus.
    pub salus: usize,
    /// Hash bits.
    pub hash_bits: usize,
    /// Ltids.
    pub ltids: usize,
}

impl StageUsage {
    fn add(&mut self, other: StageUsage) {
        self.sram_blocks += other.sram_blocks;
        self.tcam_blocks += other.tcam_blocks;
        self.vliw_slots += other.vliw_slots;
        self.salus += other.salus;
        self.hash_bits += other.hash_bits;
        self.ltids += other.ltids;
    }
}

/// Compute the cost of one table.
pub(crate) fn table_usage(table: &Table, ft: &FieldTable) -> StageUsage {
    let key_bits = table.key_bits(ft);
    let mut u = StageUsage { ltids: 1, ..Default::default() };

    if table.key.needs_tcam() && !table.atcam {
        // Ternary/LPM/range match burns TCAM: width-chained blocks deep
        // enough for the capacity.
        let wide = key_bits.div_ceil(TCAM_BLOCK_WIDTH).max(1);
        let deep = table.capacity.div_ceil(TCAM_BLOCK_ENTRIES).max(1);
        u.tcam_blocks = wide * deep;
        // Action data still lives in SRAM.
        u.sram_blocks = (table.capacity * ACTION_DATA_BITS).div_ceil(SRAM_BLOCK_BITS).max(1);
    } else if table.atcam {
        // Algorithmic TCAM stores value + mask per entry in SRAM.
        let entry_bits = 2 * key_bits + SRAM_ENTRY_OVERHEAD + ACTION_DATA_BITS;
        u.sram_blocks = (table.capacity * entry_bits).div_ceil(SRAM_BLOCK_BITS).max(1);
    } else {
        let entry_bits = key_bits + SRAM_ENTRY_OVERHEAD + ACTION_DATA_BITS;
        u.sram_blocks = (table.capacity * entry_bits).div_ceil(SRAM_BLOCK_BITS).max(1);
    }

    for action in &table.actions {
        u.vliw_slots += action.vliw_slots();
        if let Some(h) = &action.hash {
            u.hash_bits = u.hash_bits.max(usize::from(h.spec.width));
        }
    }
    // One SALU per stateful array the table's actions touch.
    let mut arrays: Vec<usize> = table
        .actions
        .iter()
        .filter_map(|a| a.salu.as_ref().map(|s| s.array))
        .collect();
    arrays.sort_unstable();
    arrays.dedup();
    u.salus = arrays.len();
    u
}

/// Compute the usage of one stage (tables + register arrays).
pub(crate) fn stage_usage(stage: &Stage, ft: &FieldTable) -> StageUsage {
    let mut u = StageUsage::default();
    for t in &stage.tables {
        u.add(table_usage(t, ft));
    }
    for a in &stage.arrays {
        u.sram_blocks += (a.size() as usize * 32).div_ceil(SRAM_BLOCK_BITS).max(1);
    }
    // SALUs are per-array hardware; a stage cannot share one SALU across
    // two arrays even if only one table references them.
    u.salus = u.salus.max(stage.arrays.len());
    u
}

/// Validate a stage against its limits (provisioning-time check).
pub(crate) fn check_stage(stage: &Stage, ft: &FieldTable) -> SimResult<StageUsage> {
    let u = stage_usage(stage, ft);
    let l = stage.limits;
    let checks: [(&'static str, usize, usize); 6] = [
        ("sram_blocks", u.sram_blocks, l.sram_blocks),
        ("tcam_blocks", u.tcam_blocks, l.tcam_blocks),
        ("vliw_slots", u.vliw_slots, l.vliw_slots),
        ("salus", u.salus, l.salus),
        ("hash_bits", u.hash_bits, l.hash_bits),
        ("ltids", u.ltids, l.ltids),
    ];
    for (name, used, limit) in checks {
        if used > limit {
            return Err(SimError::ResourceExceeded {
                stage: stage.index,
                resource: name,
                used,
                limit,
            });
        }
    }
    Ok(u)
}

/// Whole-chip resource report: the Figure 10 quantity.
#[derive(Debug, Clone, Default)]
pub struct ChipReport {
    /// Phv bits used.
    pub phv_bits_used: usize,
    /// Phv bits total.
    pub phv_bits_total: usize,
    /// Per stage.
    pub per_stage: Vec<(String, StageUsage)>,
    /// Totals.
    pub totals: StageUsage,
    /// Limits total.
    pub limits_total: StageUsage,
    /// Stages with at least one table, per gress — drives the latency model.
    pub active_ingress_stages: usize,
    /// Active egress stages.
    pub active_egress_stages: usize,
}

/// Total PHV container bits available (both gresses of a Tofino-class
/// chip share ~4 Kb of containers per gress).
pub(crate) const PHV_TOTAL_BITS: usize = 4096;

impl ChipReport {
    /// Build the report for a provisioned ingress+egress pipeline pair.
    pub fn build(ft: &FieldTable, ingress: &Pipeline, egress: &Pipeline) -> ChipReport {
        let mut report = ChipReport {
            phv_bits_used: ft.container_bits(),
            phv_bits_total: PHV_TOTAL_BITS,
            ..Default::default()
        };
        for pipe in [ingress, egress] {
            for stage in &pipe.stages {
                let u = stage_usage(stage, ft);
                report.totals.add(u);
                let l = stage.limits;
                report.limits_total.add(StageUsage {
                    sram_blocks: l.sram_blocks,
                    tcam_blocks: l.tcam_blocks,
                    vliw_slots: l.vliw_slots,
                    salus: l.salus,
                    hash_bits: l.hash_bits,
                    ltids: l.ltids,
                });
                report
                    .per_stage
                    .push((format!("{} {}", stage.gress, stage.index), u));
                if !stage.tables.is_empty() {
                    match stage.gress {
                        crate::pipeline::Gress::Ingress => report.active_ingress_stages += 1,
                        crate::pipeline::Gress::Egress => report.active_egress_stages += 1,
                    }
                }
            }
        }
        report
    }

    fn pct(used: usize, total: usize) -> f64 {
        if total == 0 {
            0.0
        } else {
            100.0 * used as f64 / total as f64
        }
    }

    /// Percent utilization per resource, in Figure 10's order:
    /// (PHV, hash, SRAM, TCAM, VLIW, SALU, LTID).
    pub fn utilization_pct(&self) -> [f64; 7] {
        [
            Self::pct(self.phv_bits_used, self.phv_bits_total),
            Self::pct(self.totals.hash_bits, self.limits_total.hash_bits),
            Self::pct(self.totals.sram_blocks, self.limits_total.sram_blocks),
            Self::pct(self.totals.tcam_blocks, self.limits_total.tcam_blocks),
            Self::pct(self.totals.vliw_slots, self.limits_total.vliw_slots),
            Self::pct(self.totals.salus, self.limits_total.salus),
            Self::pct(self.totals.ltids, self.limits_total.ltids),
        ]
    }
}

impl core::fmt::Display for ChipReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "resource     used / total   util")?;
        let pcts = self.utilization_pct();
        let rows = [
            ("PHV bits", self.phv_bits_used, self.phv_bits_total),
            ("Hash bits", self.totals.hash_bits, self.limits_total.hash_bits),
            ("SRAM blk", self.totals.sram_blocks, self.limits_total.sram_blocks),
            ("TCAM blk", self.totals.tcam_blocks, self.limits_total.tcam_blocks),
            ("VLIW", self.totals.vliw_slots, self.limits_total.vliw_slots),
            ("SALU", self.totals.salus, self.limits_total.salus),
            ("LTID", self.totals.ltids, self.limits_total.ltids),
        ];
        for ((name, used, total), pct) in rows.iter().zip(pcts) {
            writeln!(f, "{name:<10} {used:>6} / {total:<6} {pct:>5.1}%")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionDef;
    use crate::phv::FieldTable;
    use crate::pipeline::{Gress, Stage, StageLimits};
    use crate::salu::RegArray;
    use crate::table::{KeySpec, MatchKind};

    fn ft_with(bits: u8) -> (FieldTable, crate::phv::FieldId) {
        let mut ft = FieldTable::new();
        let f = ft.register("meta.k", bits).unwrap();
        (ft, f)
    }

    #[test]
    fn ternary_table_costs_tcam() {
        let (ft, f) = ft_with(32);
        let t = Table::new(
            "t",
            KeySpec::new(vec![(f, MatchKind::Ternary)]),
            vec![ActionDef::noop("n")],
            2048,
        );
        let u = table_usage(&t, &ft);
        // 32-bit key → 1 block wide; 2048 entries → 4 deep.
        assert_eq!(u.tcam_blocks, 4);
        assert!(u.sram_blocks >= 1, "action data still costs SRAM");
        assert_eq!(u.ltids, 1);
    }

    #[test]
    fn wide_ternary_key_chains_blocks() {
        let mut ft = FieldTable::new();
        let a = ft.register("a", 64).unwrap();
        let b = ft.register("b", 64).unwrap();
        let t = Table::new(
            "t",
            KeySpec::new(vec![(a, MatchKind::Ternary), (b, MatchKind::Ternary)]),
            vec![ActionDef::noop("n")],
            512,
        );
        let u = table_usage(&t, &ft);
        // 128 key bits → 3 blocks wide × 1 deep.
        assert_eq!(u.tcam_blocks, 3);
    }

    #[test]
    fn exact_table_costs_sram_only() {
        let (ft, f) = ft_with(32);
        let t = Table::new(
            "t",
            KeySpec::new(vec![(f, MatchKind::Exact)]),
            vec![ActionDef::noop("n")],
            4096,
        );
        let u = table_usage(&t, &ft);
        assert_eq!(u.tcam_blocks, 0);
        // 4096 × (32+20+128) bits = 737,280 bits → 6 blocks.
        assert_eq!(u.sram_blocks, 6);
    }

    #[test]
    fn register_array_costs_sram() {
        let ft = FieldTable::new();
        let mut stage = Stage::new(Gress::Ingress, 0, StageLimits::default());
        stage.add_array(RegArray::new("m", 65536));
        let u = stage_usage(&stage, &ft);
        // 65536 × 32 bits = 2 Mb → 16 blocks.
        assert_eq!(u.sram_blocks, 16);
        assert_eq!(u.salus, 1);
    }

    #[test]
    fn limits_enforced() {
        let (ft, f) = ft_with(32);
        let mut stage = Stage::new(
            Gress::Ingress,
            3,
            StageLimits { tcam_blocks: 2, ..Default::default() },
        );
        stage.add_table(Table::new(
            "big",
            KeySpec::new(vec![(f, MatchKind::Ternary)]),
            vec![ActionDef::noop("n")],
            2048,
        ));
        let err = check_stage(&stage, &ft).unwrap_err();
        assert!(matches!(
            err,
            SimError::ResourceExceeded { stage: 3, resource: "tcam_blocks", .. }
        ));
    }

    #[test]
    fn chip_report_aggregates_and_percentages() {
        let (ft, f) = ft_with(32);
        let mut ig = Pipeline::new(Gress::Ingress, 2, StageLimits::default());
        let eg = Pipeline::new(Gress::Egress, 2, StageLimits::default());
        ig.stage_mut(0).unwrap().add_table(Table::new(
            "t",
            KeySpec::new(vec![(f, MatchKind::Exact)]),
            vec![ActionDef::noop("n")],
            128,
        ));
        let r = ChipReport::build(&ft, &ig, &eg);
        assert_eq!(r.active_ingress_stages, 1);
        assert_eq!(r.active_egress_stages, 0);
        assert_eq!(r.totals.ltids, 1);
        assert_eq!(r.limits_total.ltids, 4 * 16);
        let pct = r.utilization_pct();
        assert!(pct[6] > 0.0 && pct[6] < 100.0);
        // Display doesn't panic and mentions every resource.
        let s = r.to_string();
        for name in ["PHV", "TCAM", "VLIW", "SALU", "LTID"] {
            assert!(s.contains(name));
        }
    }
}

#[cfg(test)]
mod atcam_tests {
    use super::*;
    use crate::action::ActionDef;
    use crate::phv::FieldTable;
    use crate::table::{KeySpec, MatchKind, Table};

    #[test]
    fn atcam_trades_tcam_for_sram() {
        let mut ft = FieldTable::new();
        let f = ft.register("k", 32).unwrap();
        let key = || KeySpec::new(vec![(f, MatchKind::Ternary)]);
        let tcam = Table::new("t", key(), vec![ActionDef::noop("n")], 4096);
        let atcam = Table::new("t", key(), vec![ActionDef::noop("n")], 4096).with_atcam();
        let u_tcam = table_usage(&tcam, &ft);
        let u_atcam = table_usage(&atcam, &ft);
        assert!(u_tcam.tcam_blocks > 0);
        assert_eq!(u_atcam.tcam_blocks, 0, "algorithmic TCAM burns no TCAM blocks");
        assert!(
            u_atcam.sram_blocks > u_tcam.sram_blocks,
            "…but stores value+mask in SRAM ({} vs {})",
            u_atcam.sram_blocks,
            u_tcam.sram_blocks
        );
    }
}
