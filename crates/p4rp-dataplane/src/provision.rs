//! Provisioning: build the complete P4runpro data plane onto a fresh
//! switch.
//!
//! This is the once-per-deployment step of the P4runpro workflow (§3.2):
//! after `provision()` succeeds the binary never changes again — every
//! subsequent reconfiguration is pure table-entry and register traffic
//! through the control channel.

use crate::atomic::{build_catalogue, build_recirc_actions, Catalogue};
use crate::encode::{init, recirc_key_spec, rpb_key_spec};
use crate::fields::{self, P4rpFields};
use crate::layout::*;
use rmt_sim::action::{ActionDef, Operand, VliwOp};
use rmt_sim::error::SimResult;
use rmt_sim::pipeline::{Gress, Pipeline, StageLimits};
use rmt_sim::resources::ChipReport;
use rmt_sim::salu::RegArray;
use rmt_sim::switch::{Switch, SwitchConfig, TableRef};
use rmt_sim::table::Table;

/// Handles into the provisioned data plane, used by the control plane.
#[derive(Debug, Clone)]
pub struct Dataplane {
    /// Fields.
    pub fields: P4rpFields,
    /// Per-RPB action catalogues (index = RPB id − 1). Ingress RPBs carry
    /// the forwarding operations; each RPB's memory hash uses its stage's
    /// CRC16 polynomial.
    pub catalogues: Vec<Catalogue>,
    /// The unified initialization-block filtering table.
    pub init_table: TableRef,
    /// Recirc table.
    pub recirc_table: TableRef,
    /// The provisioning-time resource report (Figure 10 input).
    pub report: ChipReport,
}

impl Dataplane {
    /// The catalogue of a given RPB.
    pub fn catalogue(&self, rpb: RpbId) -> &Catalogue {
        &self.catalogues[usize::from(rpb.0) - 1]
    }

    /// The CRC16 polynomial of an RPB's memory-addressing hash unit.
    pub(crate) fn mem_crc(rpb: RpbId) -> rmt_sim::hash::CrcSpec {
        rmt_sim::hash::HH_CRC_SET[(usize::from(rpb.0) - 1) % 4]
    }

}

/// Build and provision the full P4runpro data plane.
pub fn provision(cfg: SwitchConfig) -> SimResult<(Switch, Dataplane)> {
    let (ft, parser, f) = fields::build()?;
    let limits = StageLimits::default();

    let catalogues: Vec<Catalogue> = RpbId::all()
        .map(|rpb| build_catalogue(&ft, &f, rpb.is_ingress(), Dataplane::mem_crc(rpb)))
        .collect();

    let mut ingress = Pipeline::new(Gress::Ingress, INGRESS_STAGES, limits);
    let mut egress = Pipeline::new(Gress::Egress, EGRESS_STAGES, limits);

    // Initialization block: the unified filtering table (§4.1.1; see the
    // DESIGN.md deviation note on K=1).
    let init_table = {
        let stage = ingress.stage_mut(INIT_STAGE)?;
        let set_prog = ActionDef {
            name: "set_prog".into(),
            ops: vec![VliwOp::set(f.prog_id, Operand::Arg(0))],
            hash: None,
            salu: None,
        };
        let idx = stage.add_table(
            Table::new("init_filter", init::key_spec(&ft, &f), vec![set_prog], INIT_TABLE_SIZE)
                .with_atcam(),
        );
        TableRef { gress: Gress::Ingress, stage: INIT_STAGE, table: idx }
    };

    // RPBs: one table + one 65,536-bucket memory per stage (§5).
    for rpb in RpbId::all() {
        let (gress, stage_idx) = rpb.stage();
        let cat = &catalogues[usize::from(rpb.0) - 1];
        let pipe = match gress {
            Gress::Ingress => &mut ingress,
            Gress::Egress => &mut egress,
        };
        let stage = pipe.stage_mut(stage_idx)?;
        stage.add_table(Table::new(
            format!("rpb_{}", rpb.0),
            rpb_key_spec(&f),
            cat.actions.clone(),
            RPB_TABLE_SIZE,
        ));
        stage.add_array(RegArray::new(format!("mem_{}", rpb.0), RPB_MEM_SIZE as usize));
    }

    // Recirculation block (§4.1.3).
    let recirc_table = {
        let stage = ingress.stage_mut(RECIRC_STAGE)?;
        let (actions, _) = build_recirc_actions(&ft, &f);
        let idx = stage.add_table(Table::new(
            "recirc_block",
            recirc_key_spec(&f),
            actions,
            RECIRC_TABLE_SIZE,
        ));
        TableRef { gress: Gress::Ingress, stage: RECIRC_STAGE, table: idx }
    };

    let mut sw = Switch::assemble(cfg, ft, parser, ingress, egress);
    // The recirculation header never leaves the switch (§4.1.3).
    sw.set_strip_on_emit(vec![f.rc_valid]);
    let report = sw.provision()?;

    let dp = Dataplane {
        fields: f,
        catalogues,
        init_table,
        recirc_table,
        report,
    };
    Ok((sw, dp))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provisioning_succeeds_within_hardware_limits() {
        let (sw, dp) = provision(SwitchConfig::default()).unwrap();
        assert!(sw.is_provisioned());
        assert_eq!(sw.table(dp.init_table).unwrap().capacity, 8192);
        // All 22 RPB tables exist and are empty.
        for rpb in RpbId::all() {
            let t = sw.table(rpb.table_ref()).unwrap();
            assert_eq!(t.len(), 0);
            assert_eq!(t.capacity, RPB_TABLE_SIZE);
            let a = sw.array(rpb.array_ref()).unwrap();
            assert_eq!(a.size(), RPB_MEM_SIZE);
        }
    }

    #[test]
    fn report_matches_paper_profile() {
        let (_, dp) = provision(SwitchConfig::default()).unwrap();
        let r = &dp.report;
        // Every stage is active → full pipeline latency (Table 2).
        assert_eq!(r.active_ingress_stages, INGRESS_STAGES);
        assert_eq!(r.active_egress_stages, EGRESS_STAGES);
        let pct = r.utilization_pct();
        let [phv, _hash, sram, tcam, vliw, _salu, ltid] = pct;
        // Figure 10 qualitative profile: high VLIW ("uses almost all"),
        // high-but-bounded TCAM ("TCAM usage limits the scalability"),
        // moderate SRAM ("does not heavily rely on SRAM"), efficient PHV
        // and LTID.
        assert!(vliw > 80.0, "VLIW {vliw:.1}% should be nearly full");
        assert!(tcam > 50.0 && tcam <= 100.0, "TCAM {tcam:.1}%");
        assert!(sram < 50.0, "SRAM {sram:.1}% should stay moderate");
        assert!(phv > 20.0 && phv < 90.0, "PHV {phv:.1}%");
        assert!(ltid < 50.0, "LTID {ltid:.1}%");
    }

    #[test]
    fn catalogue_selection_by_rpb() {
        let (_, dp) = provision(SwitchConfig::default()).unwrap();
        // Ingress catalogues are larger (forwarding ops present).
        assert!(dp.catalogue(RpbId(3)).actions.len() > dp.catalogue(RpbId(15)).actions.len());
        // Adjacent RPBs use distinct memory-hash polynomials (§6.4).
        assert_ne!(Dataplane::mem_crc(RpbId(1)), Dataplane::mem_crc(RpbId(2)));
        assert_eq!(Dataplane::mem_crc(RpbId(1)), Dataplane::mem_crc(RpbId(5)));
    }
}
