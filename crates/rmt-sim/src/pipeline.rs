//! Stages and pipelines.
//!
//! A pipeline is an ordered list of stages; a stage owns its match-action
//! tables and its stateful register arrays. The simulator executes tables
//! within a stage in declaration order and stages front-to-back — the
//! feed-forward-only constraint of RMT: once a packet passes a stage, that
//! stage's memory is unreachable, which is exactly why the P4runpro
//! compiler must align same-memory primitives to the same physical RPB
//! (allocation constraint (5) in §4.3).

use crate::action::ActionScratch;
use crate::error::{SimError, SimResult};
use crate::phv::{FieldId, FieldTable, Phv};
use crate::salu::RegArray;
use crate::table::Table;
use crate::telemetry::{NopRecorder, Recorder};

/// Which pipeline a stage belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gress {
    /// Ingress.
    Ingress,
    /// Egress.
    Egress,
}

impl core::fmt::Display for Gress {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Gress::Ingress => write!(f, "ingress"),
            Gress::Egress => write!(f, "egress"),
        }
    }
}

/// Hardware limits of one physical stage, used at provisioning time.
///
/// The defaults approximate a Tofino-class stage: they are what the
/// resource report (Figure 10) and the power model (Table 2) normalize
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageLimits {
    /// SRAM blocks (1024 × 128 b each → 4096 32-bit words as register
    /// memory).
    pub sram_blocks: usize,
    /// TCAM blocks (512 entries × 44 b each).
    pub tcam_blocks: usize,
    /// VLIW micro-op slots across the stage's action memory.
    pub vliw_slots: usize,
    /// Stateful ALUs.
    pub salus: usize,
    /// Hash-distribution output bits.
    pub hash_bits: usize,
    /// Logical table IDs.
    pub ltids: usize,
}

impl Default for StageLimits {
    fn default() -> Self {
        StageLimits {
            sram_blocks: 80,
            tcam_blocks: 24,
            vliw_slots: 240,
            salus: 4,
            hash_bits: 104,
            ltids: 16,
        }
    }
}

/// One pipeline stage.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Gress.
    pub gress: Gress,
    /// Index.
    pub index: usize,
    /// Limits.
    pub limits: StageLimits,
    /// Tables.
    pub tables: Vec<Table>,
    /// Arrays.
    pub arrays: Vec<RegArray>,
    /// Reusable action-execution buffers (write set, hash input), so the
    /// per-packet match-action loop performs no heap allocation.
    scratch: ActionScratch,
}

impl Stage {
    /// Construct with defaults appropriate to the type.
    pub(crate) fn new(gress: Gress, index: usize, limits: StageLimits) -> Stage {
        Stage {
            gress,
            index,
            limits,
            tables: Vec::new(),
            arrays: Vec::new(),
            scratch: ActionScratch::default(),
        }
    }

    /// Add a table; returns its index within the stage.
    pub fn add_table(&mut self, table: Table) -> usize {
        self.tables.push(table);
        self.tables.len() - 1
    }

    /// Add a register array; returns its index within the stage.
    pub fn add_array(&mut self, array: RegArray) -> usize {
        self.arrays.push(array);
        self.arrays.len() - 1
    }

    /// Table.
    pub(crate) fn table(&self, idx: usize) -> SimResult<&Table> {
        self.tables.get(idx).ok_or_else(|| SimError::NoSuchTable(format!(
            "{} stage {} table {idx}",
            self.gress, self.index
        )))
    }

    /// Table mut.
    pub(crate) fn table_mut(&mut self, idx: usize) -> SimResult<&mut Table> {
        let (gress, index) = (self.gress, self.index);
        self.tables.get_mut(idx).ok_or_else(|| SimError::NoSuchTable(format!(
            "{gress} stage {index} table {idx}"
        )))
    }

    /// Array.
    pub(crate) fn array(&self, idx: usize) -> SimResult<&RegArray> {
        self.arrays.get(idx).ok_or_else(|| SimError::NoSuchRegArray(format!(
            "{} stage {} array {idx}",
            self.gress, self.index
        )))
    }

    /// Array mut.
    pub(crate) fn array_mut(&mut self, idx: usize) -> SimResult<&mut RegArray> {
        let (gress, index) = (self.gress, self.index);
        self.arrays.get_mut(idx).ok_or_else(|| SimError::NoSuchRegArray(format!(
            "{gress} stage {index} array {idx}"
        )))
    }

    /// Execute all tables of this stage against `phv`, in order.
    pub fn execute(&mut self, ft: &FieldTable, phv: &mut Phv) -> SimResult<()> {
        self.run(ft, phv, &mut NopRecorder, None)
    }

    /// [`Stage::execute`], reporting lookup/action/SALU events into `rec`.
    /// Generic over the recorder so that with [`NopRecorder`] every hook
    /// compiles away; the switch's one other instantiation is the concrete
    /// `telemetry::FanOut`, whose hooks inline into this loop.
    ///
    /// Per-program attribution: when `attr` names the PHV field carrying
    /// the owning program id, the recorder's program context is refreshed
    /// from the PHV before this stage's events fire — so events after the
    /// filter table's binding action land on the owning program's slot, and
    /// events before it land on slot 0 (see `telemetry::ProgramMetrics`).
    pub(crate) fn run<R: Recorder>(
        &mut self,
        ft: &FieldTable,
        phv: &mut Phv,
        rec: &mut R,
        attr: Option<FieldId>,
    ) -> SimResult<()> {
        if let Some(f) = attr {
            rec.prog_ctx(phv.get(f) as u16);
        }
        let Stage { gress, index, tables, arrays, scratch, .. } = self;
        let (gress, index) = (*gress, *index);
        for table in tables.iter_mut() {
            // `lookup_slot` returns plain indices, so the matched action and
            // its data can be borrowed from the table while the SALU mutates
            // this stage's arrays — no clone, no allocation per hit.
            match table.lookup_slot(phv) {
                Some(r) => {
                    rec.table_lookup(gress, index, r.hit);
                    let table = &*table;
                    let action = &table.actions[r.action];
                    let data = table.data_of(r.src);
                    let effects = action.execute_scratch(ft, phv, data, arrays, scratch)?;
                    rec.action_executed(gress, index);
                    if effects.salu_read {
                        rec.salu_rmw(gress, index, effects.salu_wrote);
                    }
                }
                // A miss with no default action still consumed a lookup.
                None => rec.table_lookup(gress, index, false),
            }
        }
        Ok(())
    }
}

/// A full ingress or egress pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Gress.
    pub gress: Gress,
    /// Stages.
    pub stages: Vec<Stage>,
}

impl Pipeline {
    /// Construct with defaults appropriate to the type.
    pub fn new(gress: Gress, num_stages: usize, limits: StageLimits) -> Pipeline {
        Pipeline {
            gress,
            stages: (0..num_stages).map(|i| Stage::new(gress, i, limits)).collect(),
        }
    }

    /// Num stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Stage.
    pub(crate) fn stage(&self, idx: usize) -> SimResult<&Stage> {
        self.stages.get(idx).ok_or_else(|| {
            SimError::Config(format!("{} has no stage {idx}", self.gress))
        })
    }

    /// Stage mut.
    pub fn stage_mut(&mut self, idx: usize) -> SimResult<&mut Stage> {
        let gress = self.gress;
        self.stages.get_mut(idx).ok_or_else(|| {
            SimError::Config(format!("{gress} has no stage {idx}"))
        })
    }

    /// Run the PHV through every stage front-to-back.
    pub fn process(&mut self, ft: &FieldTable, phv: &mut Phv) -> SimResult<()> {
        self.run(ft, phv, &mut NopRecorder, None)
    }

    /// [`Pipeline::process`], reporting per-stage events into `rec` and
    /// attributing them through `attr` (see [`Stage::run`]).
    pub(crate) fn run<R: Recorder>(
        &mut self,
        ft: &FieldTable,
        phv: &mut Phv,
        rec: &mut R,
        attr: Option<FieldId>,
    ) -> SimResult<()> {
        for stage in &mut self.stages {
            stage.run(ft, phv, rec, attr)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionDef, Operand, VliwOp};
    use crate::table::{EntryHandle, KeySpec, MatchKind, MatchValue, TableEntry};

    #[test]
    fn stages_execute_in_order() {
        let mut ft = FieldTable::new();
        let x = ft.register("meta.x", 32).unwrap();
        let mut pipe = Pipeline::new(Gress::Ingress, 3, StageLimits::default());
        // Stage 0 sets x=1; stage 1 adds 10 if x==1; stage 2 adds 100 if
        // x==11. Ordering matters: only front-to-back yields 111.
        let mk_table = |match_v: Option<u64>, add: u64| {
            let mut t = Table::new(
                format!("t{add}"),
                KeySpec::new(vec![(x, MatchKind::Exact)]),
                vec![ActionDef {
                    name: "add".into(),
                    ops: vec![VliwOp {
                        dst: x,
                        func: crate::action::AluFunc::Add,
                        a: Operand::Field(x),
                        b: Operand::Const(add),
                    }],
                    hash: None,
                    salu: None,
                }],
                4,
            );
            match match_v {
                Some(v) => t
                    .insert(
                        EntryHandle(add),
                        TableEntry { matches: vec![MatchValue::Exact(v)], priority: 0, action: 0, data: vec![] },
                    )
                    .unwrap(),
                None => t.set_default_action(0, vec![]),
            }
            t
        };
        pipe.stage_mut(0).unwrap().add_table(mk_table(Some(0), 1));
        pipe.stage_mut(1).unwrap().add_table(mk_table(Some(1), 10));
        pipe.stage_mut(2).unwrap().add_table(mk_table(Some(11), 100));
        let mut phv = Phv::new(&ft);
        phv.set(&ft, x, 0);
        pipe.process(&ft, &mut phv).unwrap();
        assert_eq!(phv.get(x), 111);
    }

    #[test]
    fn no_backward_state_access() {
        // A later stage cannot affect an earlier stage's array within one
        // pass: writes land in the owning stage only.
        let mut ft = FieldTable::new();
        let x = ft.register("meta.x", 32).unwrap();
        let mut pipe = Pipeline::new(Gress::Ingress, 2, StageLimits::default());
        pipe.stage_mut(0).unwrap().add_array(RegArray::new("a0", 4));
        pipe.stage_mut(1).unwrap().add_array(RegArray::new("a1", 4));
        let mut t = Table::new(
            "w",
            KeySpec::new(vec![(x, MatchKind::Ternary)]),
            vec![ActionDef {
                name: "write".into(),
                ops: vec![],
                hash: None,
                salu: Some(crate::action::SaluCall {
                    array: 0,
                    addr: Operand::Const(0),
                    operand: Operand::Const(7),
                    instr: crate::salu::SaluInstr::WRITE,
                    alt_instr: None,
                    select_flag: None,
                    output: None,
                }),
            }],
            4,
        );
        t.set_default_action(0, vec![]);
        pipe.stage_mut(1).unwrap().add_table(t);
        let mut phv = Phv::new(&ft);
        pipe.process(&ft, &mut phv).unwrap();
        assert_eq!(pipe.stage(0).unwrap().array(0).unwrap().read(0).unwrap(), 0);
        assert_eq!(pipe.stage(1).unwrap().array(0).unwrap().read(0).unwrap(), 7);
    }

    #[test]
    fn missing_indices_error() {
        let pipe = Pipeline::new(Gress::Egress, 1, StageLimits::default());
        assert!(pipe.stage(5).is_err());
        assert!(pipe.stage(0).unwrap().table(0).is_err());
        assert!(pipe.stage(0).unwrap().array(0).is_err());
    }
}
