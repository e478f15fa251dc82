//! Entry generation: resolve a lowered, allocated program into the
//! concrete table entries it installs.
//!
//! Inputs: the [`ProgramIr`], the [`Allocation`] (logical RPB per level
//! and the memory region of each virtual memory), the assigned program id,
//! and the provisioned data plane. Output: a [`ProgramImage`] —
//! everything needed to install, monitor, and later revoke the program.
//!
//! A program's RPB entries are encoded once per *shape* (see
//! [`EntryGenCache`]): the image holds the shape's encoded template, and
//! [`ProgramImage::rpb_entries`] copies each template entry into place with
//! the program's id and memory offsets. That copy is the entry the install
//! plan moves into the device; nothing encodes it again.

use crate::alloc::Allocation;
use crate::errors::{CompileError, CompileResult};
use crate::ir::{IrOp, MemDecl, PlacedOp, ProgramIr};
use p4rp_dataplane::{encode_rpb_entry, init, Dataplane, LogicalRpb};
use p4rp_dataplane::{FilterEntrySpec, P4rpFields, RpbEntrySpec, RpbId, RpbOp};
use rmt_sim::table::{MatchValue, TableEntry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

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
    /// The RPB entries, as the shape's encoded template (shared with the
    /// cache that made it); [`ProgramImage::rpb_entries`] patches them.
    pub(crate) body: Arc<BodyTemplate>,
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

/// The RPB entries of one program shape, encoded with program id 0 and
/// every offset step's offset 0, and the points a program patches.
#[derive(Debug, Default)]
pub(crate) struct BodyTemplate {
    /// `(physical RPB, entry)` in install order.
    entries: Vec<(RpbId, TableEntry)>,
    /// `(entry index, memory index)` of each offset step, in entry order:
    /// its first data word is the offset of that memory of `ir.memories`.
    offsets: Vec<(usize, u16)>,
}

impl ProgramImage {
    /// Total data plane entries (for update-delay accounting, Table 1).
    pub fn entry_count(&self) -> usize {
        self.body.entries.len() + 1 + self.recirc_ids.len()
    }

    /// The physical RPB of each RPB entry, in install order.
    pub fn rpbs(&self) -> impl Iterator<Item = RpbId> + '_ {
        self.body.entries.iter().map(|&(rpb, _)| rpb)
    }

    /// The RPB entries, in install order: each template entry copied into
    /// place with this program's id (the first key field of an RPB table)
    /// and, for an offset step, its memory's offset.
    pub(crate) fn rpb_entries(
        &self,
    ) -> impl ExactSizeIterator<Item = (RpbId, TableEntry)> + '_ {
        let id = MatchValue::Ternary { value: u64::from(self.prog_id), mask: 0xffff };
        let mut offsets = self.body.offsets.iter().peekable();
        self.body.entries.iter().enumerate().map(move |(k, (rpb, template))| {
            let mut entry = template.clone();
            entry.matches[0] = id;
            if let Some(&(_, m)) = offsets.next_if(|&&(at, _)| at == k) {
                entry.data[0] = u64::from(self.mem_regions[usize::from(m)].offset);
            }
            (*rpb, entry)
        })
    }
}

/// The RPB entries of an allocated program, resolved but not encoded.
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

/// Encode the RPB entries of `ir`'s shape under `alloc`: program id 0, and
/// every offset step's offset 0 with its patch point recorded.
fn encode_body(ir: &ProgramIr, alloc: &Allocation, dp: &Dataplane) -> CompileResult<BodyTemplate> {
    let specs = body_entries(ir, alloc, 0, &dp.fields)?;
    let mut body = BodyTemplate { entries: Vec::with_capacity(specs.len()), offsets: Vec::new() };
    // The k-th non-NOP placed op is the k-th entry.
    let placed = ir.levels.iter().flatten().filter(|p| p.op != IrOp::Nop);
    for (k, ((rpb, spec), placed)) in specs.iter().zip(placed).enumerate() {
        let mut entry = encode_rpb_entry(dp.catalogue(*rpb), spec).map_err(|e| {
            CompileError::AllocationFailed { reason: format!("encode failed: {e}") }
        })?;
        if let IrOp::MemOffset { mem, .. } = &placed.op {
            let mi = ir
                .memories
                .iter()
                .position(|m| &m.name == mem)
                .expect("offset step references a declared memory") as u16;
            body.offsets.push((k, mi));
            entry.data[0] = 0;
        }
        body.entries.push((*rpb, entry));
    }
    Ok(body)
}

/// The image of an allocated program with the RPB entries `body`.
fn assemble(
    ir: &ProgramIr,
    alloc: &Allocation,
    prog_id: u16,
    dp: &Dataplane,
    ft_universe: &rmt_sim::phv::FieldTable,
    body: Arc<BodyTemplate>,
) -> CompileResult<ProgramImage> {
    // Every memory needs its region: the image's offset patches read it.
    if let Some(m) = ir.memories.get(alloc.regions.len()) {
        return Err(CompileError::UnknownMemory(m.name.clone()));
    }
    let fields = &dp.fields;
    // The program's filter entry for the unified initialization table.
    let mut conds = Vec::with_capacity(ir.filters.len());
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
        body,
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
/// verified by full equality on hit — and stores the shape's RPB entries
/// *encoded*, with program id 0, zeroed offsets, and the entry positions of
/// the offsets. Branch ids, register conditions and recirculation ids are
/// part of the shape. A hit shares the template with the new image, whose
/// [`ProgramImage::rpb_entries`] copies each entry into place, patched: no
/// op is resolved and no entry is encoded again. The filter entry and
/// memory regions are always built fresh (they are instance-specific and
/// cheap).
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
    body: Arc<BodyTemplate>,
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
/// its entries are bit-identical to encoding the program from scratch.
pub fn generate_cached(
    cache: &mut EntryGenCache,
    ir: &ProgramIr,
    alloc: &Allocation,
    prog_id: u16,
    dp: &Dataplane,
    ft_universe: &rmt_sim::phv::FieldTable,
) -> CompileResult<ProgramImage> {
    let key = EntryGenCache::shape_key(ir, alloc);
    if let Some(e) = cache.map.get(&key) {
        if e.levels == ir.levels && e.memories == ir.memories && e.x == alloc.x {
            cache.hits += 1;
            let body = Arc::clone(&e.body);
            return assemble(ir, alloc, prog_id, dp, ft_universe, body);
        }
    }
    let body = Arc::new(encode_body(ir, alloc, dp)?);
    if cache.map.len() >= CACHE_CAP {
        cache.map.clear();
    }
    cache.map.insert(
        key,
        CacheEntry {
            levels: ir.levels.clone(),
            memories: ir.memories.clone(),
            x: alloc.x.clone(),
            body: Arc::clone(&body),
        },
    );
    cache.misses += 1;
    assemble(ir, alloc, prog_id, dp, ft_universe, body)
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
    use p4rp_dataplane::{provision, AtomicAction, RPB_MEM_SIZE, RPB_TABLE_SIZE};
    use p4rp_lang::parse;
    use rmt_sim::phv::FieldTable;
    use rmt_sim::switch::SwitchConfig;

    fn plane() -> (FieldTable, Dataplane) {
        let (sw, dp) = provision(SwitchConfig::default()).unwrap();
        (sw.field_table().clone(), dp)
    }

    /// The RPB entries encoded from scratch, which an image's patched
    /// template must reproduce.
    fn encoded(
        ir: &ProgramIr,
        alloc: &Allocation,
        prog_id: u16,
        dp: &Dataplane,
    ) -> Vec<(RpbId, TableEntry)> {
        body_entries(ir, alloc, prog_id, &dp.fields)
            .unwrap()
            .iter()
            .map(|(rpb, spec)| (*rpb, encode_rpb_entry(dp.catalogue(*rpb), spec).unwrap()))
            .collect()
    }

    fn lowered(src: &str) -> (ProgramIr, Allocation) {
        let unit = parse(src).unwrap();
        let mems: Vec<MemDecl> = unit
            .annotations
            .iter()
            .map(|a| MemDecl { name: a.name.clone(), size: a.size as u32 })
            .collect();
        let ir = lower(&unit.programs[0], &mems).unwrap();
        let view = AllocView::unconstrained(RPB_TABLE_SIZE, RPB_MEM_SIZE);
        let alloc = allocate(&ir, &view, &AllocConfig::default()).unwrap();
        (ir, alloc)
    }

    /// The program's resolved entries and its image, with each vmem at
    /// bucket 4096 of its chosen RPB.
    fn build_image(src: &str) -> (Vec<(RpbId, RpbEntrySpec)>, Allocation, ProgramImage) {
        let (ft, dp) = plane();
        let (ir, mut alloc) = lowered(src);
        for region in &mut alloc.regions {
            region.1 = 4096;
        }
        let mut cache = EntryGenCache::default();
        let image = generate_cached(&mut cache, &ir, &alloc, 7, &dp, &ft).unwrap();
        assert_eq!(image.rpb_entries().collect::<Vec<_>>(), encoded(&ir, &alloc, 7, &dp));
        (body_entries(&ir, &alloc, 7, &dp.fields).unwrap(), alloc, image)
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
        let (specs, alloc, image) = build_image(LB);
        assert_eq!(image.prog_id, 7);
        assert_eq!(image.rpbs().count(), specs.len());
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
        let hash = specs
            .iter()
            .find(|(_, e)| e.op.action == AtomicAction::Hash5TupleMem)
            .expect("hash op present");
        assert!(hash.1.op.data == vec![1023] || hash.1.op.data == vec![15]);
        // Offset steps carry the region's physical offset.
        let off = specs
            .iter()
            .find(|(_, e)| e.op.action == AtomicAction::MemOffset)
            .unwrap();
        assert_eq!(off.1.op.data[0], 4096);
    }

    #[test]
    fn entry_count_matches_components() {
        let (specs, _, image) = build_image(LB);
        assert_eq!(
            image.entry_count(),
            specs.len() + 1 + image.recirc_ids.len()
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
        let (specs, alloc, image) = build_image(src);
        assert_eq!(alloc.passes, 2);
        assert_eq!(image.recirc_ids, vec![0]);
        // Second-pass entries carry recirc_id 1.
        assert!(specs.iter().any(|(_, e)| e.recirc_id == 1));
    }

    #[test]
    fn cached_generation_is_bit_identical() {
        let (ft, dp) = plane();
        let mut cache = EntryGenCache::default();
        // Two instances of one shape: same body, different name/filter/
        // prog_id/offsets — the second must hit and still patch correctly.
        for (i, (dst, off)) in [("10.0.0.0", 4096u32), ("10.0.1.0", 8192u32)].iter().enumerate() {
            let src = format!(
                "@ m 256\nprogram p{i}(<hdr.ipv4.dst, {dst}, 0xffffff00>) {{ LOADI(mar, 1); MEMADD(m); FORWARD(7); }}"
            );
            let (ir, mut alloc) = lowered(&src);
            alloc.regions[0].1 = *off;
            let prog_id = (i + 3) as u16;
            let image = generate_cached(&mut cache, &ir, &alloc, prog_id, &dp, &ft).unwrap();
            let entries: Vec<_> = image.rpb_entries().collect();
            assert_eq!(entries, encoded(&ir, &alloc, prog_id, &dp));
            assert_eq!(image.filter.prog_id, prog_id);
            assert_eq!(image.mem_regions[0].offset, *off);
            // The patched offset really is this instance's region.
            let specs = body_entries(&ir, &alloc, prog_id, &dp.fields).unwrap();
            let k = specs.iter().position(|(_, e)| e.op.action == AtomicAction::MemOffset).unwrap();
            assert_eq!(entries[k].1.data[0], u64::from(*off));
        }
        assert_eq!((cache.misses, cache.hits), (1, 1), "second instance hit the template");
    }

    #[test]
    fn unsupported_filter_field_rejected() {
        let (ft, dp) = plane();
        let (ir, alloc) = lowered("program p(<hdr.ipv4.ttl, 1, 0xff>) { DROP; }");
        let mut cache = EntryGenCache::default();
        let err = generate_cached(&mut cache, &ir, &alloc, 1, &dp, &ft).unwrap_err();
        assert!(matches!(err, CompileError::UnknownField(_)));
    }
}
