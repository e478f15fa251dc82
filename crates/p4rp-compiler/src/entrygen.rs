//! Entry generation: resolve a lowered, allocated program into the
//! concrete table entries it installs.
//!
//! Inputs: the [`ProgramIr`], the [`Allocation`] (logical RPB per level
//! and the memory region of each virtual memory), the assigned program id,
//! and the provisioned field universe. Output: a [`ProgramImage`] —
//! everything needed to install, monitor, and later revoke the program.

use crate::alloc::Allocation;
use crate::errors::{CompileError, CompileResult};
use crate::ir::{IrOp, MemDecl, PlacedOp, ProgramIr};
use p4rp_dataplane::LogicalRpb;
use p4rp_dataplane::{init, FilterEntrySpec, P4rpFields, RpbEntrySpec, RpbId, RpbOp};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// A virtual memory's physical region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRegion {
    /// Human-readable name.
    pub name: String,
    /// Rpb.
    pub rpb: RpbId,
    /// First bucket of the region.
    pub offset: u32,
    /// Buckets.
    pub size: u32,
}

/// The installable image of one program.
#[derive(Debug, Clone)]
pub struct ProgramImage {
    /// Prog id.
    pub prog_id: u16,
    /// Human-readable name.
    pub name: String,
    /// RPB entries: `(physical RPB, entry spec)`.
    pub rpb_entries: Vec<(RpbId, RpbEntrySpec)>,
    /// The initialization-block filter entry.
    pub filter: FilterEntrySpec,
    /// Recirculation-block entries to install (`recirc_id` values).
    pub recirc_ids: Vec<u8>,
    /// Memory regions, one per `ir.memories` entry, where the allocation
    /// placed them.
    pub mem_regions: Vec<MemRegion>,
    /// Pipeline passes the program needs.
    pub passes: u8,
}

impl ProgramImage {
    /// Total data plane entries (for update-delay accounting, Table 1).
    pub fn entry_count(&self) -> usize {
        self.rpb_entries.len() + 1 + self.recirc_ids.len()
    }
}

/// The RPB-entry half of an image (everything the shape cache covers).
fn body_entries(
    ir: &ProgramIr,
    alloc: &Allocation,
    prog_id: u16,
    fields: &P4rpFields,
) -> CompileResult<Vec<(RpbId, RpbEntrySpec)>> {
    let mut rpb_entries = Vec::new();
    for (level_idx, level) in ir.levels.iter().enumerate() {
        let logical = LogicalRpb::from_index(alloc.x[level_idx]);
        let rpb = logical.rpb();
        let pass = logical.pass();
        for placed in level {
            let op = match resolve_op(&placed.op, ir, alloc, fields)? {
                Some(op) => op,
                None => continue, // NOP padding installs nothing
            };
            rpb_entries.push((
                rpb,
                RpbEntrySpec {
                    prog_id,
                    branch: placed.branch,
                    recirc_id: pass,
                    regs: placed.regs,
                    priority: placed.priority,
                    op,
                },
            ));
        }
    }
    Ok(rpb_entries)
}

/// The instance-specific half of an image: filter entry, memory
/// regions, recirculation ids.
fn assemble(
    ir: &ProgramIr,
    alloc: &Allocation,
    prog_id: u16,
    fields: &P4rpFields,
    ft_universe: &rmt_sim::phv::FieldTable,
    rpb_entries: Vec<(RpbId, RpbEntrySpec)>,
) -> CompileResult<ProgramImage> {
    // The program's filter entry for the unified initialization table.
    let mut conds = Vec::new();
    let mut required_bitmap = 0u16;
    for (name, value, mask) in &ir.filters {
        if !init::supports_field(ft_universe, fields, name) {
            return Err(CompileError::UnknownField(format!(
                "filter field `{name}` is not in the initialization table key"
            )));
        }
        let id = fields
            .lookup(name)
            .ok_or_else(|| CompileError::UnknownField(name.clone()))?;
        required_bitmap |= init::required_bits(name);
        conds.push((id, *value, *mask));
    }
    let filter = FilterEntrySpec { prog_id, required_bitmap, conds, priority: 0 };

    let mem_regions = ir
        .memories
        .iter()
        .zip(&alloc.regions)
        .map(|(m, &(rpb, offset, size))| MemRegion { name: m.name.clone(), rpb, offset, size })
        .collect();

    Ok(ProgramImage {
        prog_id,
        name: ir.name.clone(),
        rpb_entries,
        filter,
        recirc_ids: (0..alloc.passes.saturating_sub(1)).collect(),
        mem_regions,
        passes: alloc.passes,
    })
}

/// Memoizes RPB-entry generation across program *shapes*.
///
/// Deploy streams install many instances of one source template (the §6.2
/// workload families): identical levels, memories, and placement; only the
/// name, filter values, program id, and memory offsets differ. The
/// cache keys on the shape — `(levels, memories, x)` hashed with FxHash,
/// verified by full equality on hit — and stores the entry list with a
/// neutral program id and zeroed offsets plus the positions to patch, so a
/// hit clones the template and rewrites `prog_id` and the `MemOffset`
/// offsets instead of re-resolving every op. The filter entry and memory
/// regions are always built fresh (they are instance-specific and cheap).
#[derive(Debug, Default)]
pub struct EntryGenCache {
    map: HashMap<u64, CacheEntry>,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that built (and stored) a template.
    pub misses: u64,
}

#[derive(Debug)]
struct CacheEntry {
    levels: Vec<Vec<PlacedOp>>,
    memories: Vec<MemDecl>,
    x: Vec<u16>,
    /// Entries with `prog_id = 0` and `MemOffset` offsets zeroed.
    template: Vec<(RpbId, RpbEntrySpec)>,
    /// `(entry index, memory index in `memories`)` of each offset step.
    patches: Vec<(usize, u16)>,
}

/// Templates kept before the cache resets (shapes are few; this is a
/// safety valve, not an expected eviction path).
const CACHE_CAP: usize = 256;

impl EntryGenCache {
    fn shape_key(ir: &ProgramIr, alloc: &Allocation) -> u64 {
        let mut h = rmt_sim::fxhash::FxHasher::default();
        ir.levels.hash(&mut h);
        ir.memories.hash(&mut h);
        alloc.x.hash(&mut h);
        h.finish()
    }
}

/// Generate the image of an allocated program through the shape cache:
/// output bit-identical to generating from scratch, amortized cost for
/// repeated shapes.
pub fn generate_cached(
    cache: &mut EntryGenCache,
    ir: &ProgramIr,
    alloc: &Allocation,
    prog_id: u16,
    fields: &P4rpFields,
    ft_universe: &rmt_sim::phv::FieldTable,
) -> CompileResult<ProgramImage> {
    let key = EntryGenCache::shape_key(ir, alloc);
    if let Some(e) = cache.map.get(&key) {
        if e.levels == ir.levels && e.memories == ir.memories && e.x == alloc.x {
            let mut rpb_entries = e.template.clone();
            for (_, spec) in &mut rpb_entries {
                spec.prog_id = prog_id;
            }
            for &(k, mi) in &e.patches {
                let memory = &e.memories[usize::from(mi)].name;
                let region = alloc.regions.get(usize::from(mi));
                let offset = region.ok_or_else(|| CompileError::UnknownMemory(memory.clone()))?.1;
                rpb_entries[k].1.op.data[0] = u64::from(offset);
            }
            cache.hits += 1;
            return assemble(ir, alloc, prog_id, fields, ft_universe, rpb_entries);
        }
    }

    let rpb_entries = body_entries(ir, alloc, prog_id, fields)?;

    // Patch positions: the k-th non-NOP placed op is the k-th entry.
    let mut patches = Vec::new();
    for (k, placed) in
        ir.levels.iter().flatten().filter(|p| p.op != IrOp::Nop).enumerate()
    {
        if let IrOp::MemOffset { mem, .. } = &placed.op {
            let mi = ir
                .memories
                .iter()
                .position(|m| &m.name == mem)
                .expect("offset step references a declared memory") as u16;
            patches.push((k, mi));
        }
    }
    let mut template = rpb_entries.clone();
    for (_, spec) in &mut template {
        spec.prog_id = 0;
    }
    for &(k, _) in &patches {
        template[k].1.op.data[0] = 0;
    }
    if cache.map.len() >= CACHE_CAP {
        cache.map.clear();
    }
    cache.map.insert(
        key,
        CacheEntry {
            levels: ir.levels.clone(),
            memories: ir.memories.clone(),
            x: alloc.x.clone(),
            template,
            patches,
        },
    );
    cache.misses += 1;
    assemble(ir, alloc, prog_id, fields, ft_universe, rpb_entries)
}

/// Resolve one IR op into a concrete RPB operation. `None` for NOPs.
fn resolve_op(
    op: &IrOp,
    ir: &ProgramIr,
    alloc: &Allocation,
    fields: &P4rpFields,
) -> CompileResult<Option<RpbOp>> {
    let field = |name: &str| {
        fields
            .lookup(name)
            .ok_or_else(|| CompileError::UnknownField(name.to_string()))
    };
    // `(rpb, offset, size)` of a virtual memory.
    let region = |mem: &str| {
        ir.memories
            .iter()
            .position(|m| m.name == mem)
            .and_then(|i| alloc.regions.get(i))
            .ok_or_else(|| CompileError::UnknownMemory(mem.to_string()))
    };
    let offset_of = |mem: &str| region(mem).map(|r| r.1);
    // The mask step truncates the hash output to the virtual memory's
    // width: `size − 1` (size is a power of two, checked upstream).
    let mask_of = |mem: &str| region(mem).map(|r| r.2 - 1);
    Ok(Some(match op {
        IrOp::Extract { field: f, reg } => RpbOp::extract(field(f)?, *reg),
        IrOp::Modify { field: f, reg } => RpbOp::modify(field(f)?, *reg),
        IrOp::HashHar => RpbOp::hash_har(),
        IrOp::Hash5Tuple => RpbOp::hash_5_tuple(),
        IrOp::HashHarMem { mem } => RpbOp::hash_har_mem(mask_of(mem)?),
        IrOp::Hash5TupleMem { mem } => RpbOp::hash_5_tuple_mem(mask_of(mem)?),
        IrOp::SetBranch { bits } => RpbOp::set_branch(*bits),
        IrOp::MemOffset { mem, kind } => RpbOp::mem_offset(offset_of(mem)?, kind.pair().1),
        IrOp::MemAccess { kind, .. } => RpbOp::mem(*kind),
        IrOp::LoadI { reg, imm } => RpbOp::loadi(*reg, *imm),
        IrOp::AluRR { op, a, b } => RpbOp::alu_rr(*op, *a, *b),
        IrOp::Backup { reg, .. } => RpbOp::backup(*reg),
        IrOp::Restore { reg, .. } => RpbOp::restore(*reg),
        IrOp::Forward { port } => RpbOp::forward(*port),
        IrOp::Multicast { group } => RpbOp::multicast(*group),
        IrOp::Drop => RpbOp::drop(),
        IrOp::Return => RpbOp::return_(),
        IrOp::Report => RpbOp::report(),
        IrOp::Nop => return Ok(None),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{allocate, AllocConfig, AllocView};
    use crate::ir::{lower, MemDecl};
    use p4rp_dataplane::{AtomicAction, RPB_MEM_SIZE, RPB_TABLE_SIZE};
    use p4rp_lang::parse;

    /// The image generated from scratch, which [`generate_cached`]'s
    /// patched templates must reproduce.
    fn generate(
        ir: &ProgramIr,
        alloc: &Allocation,
        prog_id: u16,
        fields: &P4rpFields,
        ft_universe: &rmt_sim::phv::FieldTable,
    ) -> CompileResult<ProgramImage> {
        let rpb_entries = body_entries(ir, alloc, prog_id, fields)?;
        assemble(ir, alloc, prog_id, fields, ft_universe, rpb_entries)
    }

    fn build_image(src: &str) -> (ProgramIr, Allocation, ProgramImage) {
        let (ft, _, fields) = p4rp_dataplane::fields::build().unwrap();
        let unit = parse(src).unwrap();
        let mems: Vec<MemDecl> = unit
            .annotations
            .iter()
            .map(|a| MemDecl { name: a.name.clone(), size: a.size as u32 })
            .collect();
        let ir = lower(&unit.programs[0], &mems).unwrap();
        let view = AllocView::unconstrained(RPB_TABLE_SIZE, RPB_MEM_SIZE);
        let mut alloc = allocate(&ir, &view, &AllocConfig::default()).unwrap();
        // Each vmem at bucket 4096 of its chosen RPB.
        for region in &mut alloc.regions {
            region.1 = 4096;
        }
        let image = generate(&ir, &alloc, 7, &fields, &ft).unwrap();
        (ir, alloc, image)
    }

    const LB: &str = r#"
@ dip_pool 1024
@ port_pool 16
program lb(<hdr.ipv4.dst, 10.0.0.0, 0xffff0000>) {
    HASH_5_TUPLE_MEM(port_pool);
    MEMREAD(port_pool);
    BRANCH:
    case(<sar, 0, 0xffffffff>) {
        FORWARD(0);
    };
    case(<sar, 1, 0xffffffff>) {
        FORWARD(1);
    };
    MEMREAD(dip_pool);
    MODIFY(hdr.ipv4.dst, sar);
}
"#;

    #[test]
    fn lb_image_shape() {
        let (ir, alloc, image) = build_image(LB);
        assert_eq!(image.prog_id, 7);
        let entries = ir.levels.iter().flatten().filter(|p| p.op != IrOp::Nop).count();
        assert_eq!(image.rpb_entries.len(), entries);
        // ipv4 filter requires the eth + ipv4 parse-path bits.
        assert_eq!(
            image.filter.required_bitmap,
            init::required_bits("hdr.ipv4.dst")
        );
        assert_eq!(image.mem_regions.len(), 2);
        assert_eq!(u32::from(image.passes), u32::from(alloc.passes));
        // No recirculation needed → no recirc entries.
        if image.passes == 1 {
            assert!(image.recirc_ids.is_empty());
        }
        // Hash-to-memory entries carry the size-derived mask.
        let hash = image
            .rpb_entries
            .iter()
            .find(|(_, e)| e.op.action == AtomicAction::Hash5TupleMem)
            .expect("hash op present");
        assert!(hash.1.op.data == vec![1023] || hash.1.op.data == vec![15]);
        // Offset steps carry the region's physical offset.
        let off = image
            .rpb_entries
            .iter()
            .find(|(_, e)| e.op.action == AtomicAction::MemOffset)
            .unwrap();
        assert_eq!(off.1.op.data[0], 4096);
    }

    #[test]
    fn entry_count_matches_components() {
        let (_, _, image) = build_image(LB);
        assert_eq!(
            image.entry_count(),
            image.rpb_entries.len() + 1 + image.recirc_ids.len()
        );
    }

    #[test]
    fn multipass_program_gets_recirc_entries() {
        let src = r#"
@ m 256
program p(<hdr.ipv4.dst, 1, 1>) {
    LOADI(mar, 0);
    MEMREAD(m);
    LOADI(mar, 1);
    MEMWRITE(m);
}
"#;
        let (_, alloc, image) = build_image(src);
        assert_eq!(alloc.passes, 2);
        assert_eq!(image.recirc_ids, vec![0]);
        // Second-pass entries carry recirc_id 1.
        assert!(image.rpb_entries.iter().any(|(_, e)| e.recirc_id == 1));
    }

    #[test]
    fn cached_generation_is_bit_identical() {
        let (ft, _, fields) = p4rp_dataplane::fields::build().unwrap();
        let mut cache = EntryGenCache::default();
        // Two instances of one shape: same body, different name/filter/
        // prog_id/offsets — the second must hit and still patch correctly.
        for (i, (dst, off)) in [("10.0.0.0", 4096u32), ("10.0.1.0", 8192u32)].iter().enumerate() {
            let src = format!(
                "@ m 256\nprogram p{i}(<hdr.ipv4.dst, {dst}, 0xffffff00>) {{ LOADI(mar, 1); MEMADD(m); FORWARD(7); }}"
            );
            let unit = parse(&src).unwrap();
            let mems: Vec<MemDecl> = unit
                .annotations
                .iter()
                .map(|a| MemDecl { name: a.name.clone(), size: a.size as u32 })
                .collect();
            let ir = lower(&unit.programs[0], &mems).unwrap();
            let view = AllocView::unconstrained(RPB_TABLE_SIZE, RPB_MEM_SIZE);
            let mut alloc = allocate(&ir, &view, &AllocConfig::default()).unwrap();
            alloc.regions[0].1 = *off;
            let prog_id = (i + 3) as u16;
            let plain = generate(&ir, &alloc, prog_id, &fields, &ft).unwrap();
            let cached = generate_cached(&mut cache, &ir, &alloc, prog_id, &fields, &ft).unwrap();
            assert_eq!(plain.rpb_entries, cached.rpb_entries);
            assert_eq!(plain.filter, cached.filter);
            assert_eq!(plain.mem_regions, cached.mem_regions);
            assert_eq!(plain.recirc_ids, cached.recirc_ids);
            // The patched offset really is this instance's region.
            let offv = cached
                .rpb_entries
                .iter()
                .find(|(_, e)| e.op.action == AtomicAction::MemOffset)
                .unwrap();
            assert_eq!(offv.1.op.data[0], u64::from(*off));
        }
        assert_eq!((cache.misses, cache.hits), (1, 1), "second instance hit the template");
    }

    #[test]
    fn unsupported_filter_field_rejected() {
        let (ft, _, fields) = p4rp_dataplane::fields::build().unwrap();
        let unit = parse("program p(<hdr.ipv4.ttl, 1, 0xff>) { DROP; }").unwrap();
        let ir = lower(&unit.programs[0], &[]).unwrap();
        let view = AllocView::unconstrained(RPB_TABLE_SIZE, RPB_MEM_SIZE);
        let alloc = allocate(&ir, &view, &AllocConfig::default()).unwrap();
        let err = generate(&ir, &alloc, 1, &fields, &ft).unwrap_err();
        assert!(matches!(err, CompileError::UnknownField(_)));
    }
}
