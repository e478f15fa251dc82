//! FlyMon baseline (Zheng et al., SIGCOMM '22).
//!
//! FlyMon reconfigures *network measurement* tasks on the fly by composing
//! flow keys and flow attributes over Composable Measurement Units (CMUs).
//! It is deliberately narrow: only measurement tasks exist (the paper's
//! generality comparison), but within that scope reconfiguration is cheap
//! — a handful of entries per task (Table 1's `**` rows) — and the data
//! plane carries no generality overhead (Table 2: no extra ingress logic,
//! no power above its measurement stages).

use rmt_sim::error::SimResult;
use rmt_sim::phv::FieldTable;
use rmt_sim::pipeline::{Gress, Pipeline, StageLimits};
use rmt_sim::resources::ChipReport;
use rmt_sim::salu::RegArray;
use rmt_sim::table::{KeySpec, MatchKind, Table};
use rmt_sim::action::{ActionDef, Operand, VliwOp};

/// FlyMon's data plane profile for Figure 10 / Table 2: a nearly-empty
/// ingress (2 stages of steering) and ~10 egress stages of CMUs, each a
/// pair of register arrays driven by hash-selected keys.
pub fn build_profile() -> SimResult<ChipReport> {
    let mut ft = FieldTable::new();
    let key = ft.register("fm.key", 32)?;
    let attr = ft.register("fm.attr", 32)?;

    let limits = StageLimits::default();
    let mut ingress = Pipeline::new(Gress::Ingress, 12, limits);
    let mut egress = Pipeline::new(Gress::Egress, 12, limits);

    // Ingress: key composition (2 stages).
    for idx in 0..2 {
        let stage = ingress.stage_mut(idx)?;
        stage.add_table(Table::new(
            format!("key_comp_{idx}"),
            KeySpec::new(vec![(key, MatchKind::Ternary)]),
            vec![ActionDef {
                name: "compose".into(),
                ops: vec![VliwOp::set(key, Operand::Arg(0))],
                hash: Some(rmt_sim::action::HashCall {
                    spec: rmt_sim::hash::CRC16_BUYPASS,
                    input: rmt_sim::action::HashInput::Fields(vec![key]),
                    dst: attr,
                    mask: None,
                }),
                salu: None,
            }],
            1024,
        ));
    }
    // Egress: 10 stages of CMU groups — three CMUs per stage, each a
    // hash-addressed register array behind its own ternary task table.
    for idx in 0..10 {
        let stage = egress.stage_mut(idx)?;
        for cmu in 0..3 {
            let mut actions = Vec::new();
            for i in 0..8 {
                actions.push(ActionDef {
                    name: format!("cmu{cmu}_op_{i}"),
                    ops: vec![VliwOp::set(attr, Operand::Arg(0))],
                    hash: Some(rmt_sim::action::HashCall {
                        spec: rmt_sim::hash::CRC32,
                        input: rmt_sim::action::HashInput::Fields(vec![key]),
                        dst: attr,
                        mask: None,
                    }),
                    salu: Some(rmt_sim::action::SaluCall {
                        array: cmu,
                        addr: Operand::Field(key),
                        operand: Operand::Field(attr),
                        instr: rmt_sim::salu::SaluInstr::READ,
                        alt_instr: None,
                        select_flag: None,
                        output: Some(attr),
                    }),
                });
            }
            stage.add_table(Table::new(
                format!("cmu_{idx}_{cmu}"),
                KeySpec::new(vec![(key, MatchKind::Ternary), (attr, MatchKind::Ternary)]),
                actions,
                1024,
            ));
            stage.add_array(RegArray::new(format!("cmu_mem_{idx}_{cmu}"), 65_536));
        }
    }
    Ok(ChipReport::build(&ft, &ingress, &egress))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_is_ingress_light() {
        let report = build_profile().unwrap();
        assert_eq!(report.active_ingress_stages, 2, "Table 2: ingress ≈54 cycles");
        assert_eq!(report.active_egress_stages, 10);
    }
}
