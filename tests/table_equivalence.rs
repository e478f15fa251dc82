//! Property tests: the indexed table lookup is observationally equivalent
//! to a reference linear scan.
//!
//! The table's ordered scan is the semantic definition of first-match
//! precedence (priority desc → LPM prefix-length sum desc → insertion
//! order asc); the exact-key hash index, the per-prefix-length LPM
//! buckets, and the tuple-space search over ternary/range/mixed keys are
//! pure accelerations of it. These properties rebuild that definition
//! *independently* — a naive filter-then-minimize over a shadow entry
//! list — and check the real table against it for random key specs,
//! entries, priorities, churn, and probes, two ways per probe: indexed
//! and forced scan.
//!
//! The case count obeys `P4RP_PROPTEST_CASES` (CI's `tcam-equivalence`
//! step sets it low for a fast smoke; the default is the full campaign).
//!
//! The directed cases below the properties pin the common-mask partition
//! maintenance rules (narrowing, never widening, reset on empty, the scan
//! cutoff inside a partition, fold collisions), and one switch-level guard
//! replays traffic through a loaded switch against its scan-forced clone.

use proptest::prelude::*;
use rmt_sim::action::ActionDef;
use rmt_sim::phv::{FieldId, FieldTable, Phv};
use rmt_sim::table::{EntryHandle, KeySpec, MatchKind, MatchValue, Table, TableEntry};

const KINDS: [MatchKind; 4] =
    [MatchKind::Exact, MatchKind::Ternary, MatchKind::Lpm, MatchKind::Range];
const WIDTHS: [u8; 3] = [32, 16, 8];

/// The shadow copy of one live entry.
#[derive(Debug, Clone)]
struct RefEntry {
    matches: Vec<MatchValue>,
    priority: i32,
    seq: u64,
    action: usize,
    data: Vec<u64>,
}

/// The reference model: a plain list in insertion order plus the
/// first-match rule written out directly.
#[derive(Debug, Default)]
struct RefTable {
    entries: Vec<(u64, RefEntry)>, // (handle, entry)
    default_action: Option<(usize, Vec<u64>)>,
    next_seq: u64,
}

impl RefTable {
    fn insert(&mut self, handle: u64, e: &TableEntry) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push((
            handle,
            RefEntry {
                matches: e.matches.clone(),
                priority: e.priority,
                seq,
                action: e.action,
                data: e.data.clone(),
            },
        ));
    }

    fn delete(&mut self, handle: u64) -> bool {
        match self.entries.iter().position(|(h, _)| *h == handle) {
            Some(i) => {
                self.entries.remove(i);
                true
            }
            None => false,
        }
    }

    /// First match by the paper-facing precedence rule, computed the slow
    /// obvious way: filter all matching entries, then minimize the rank.
    fn lookup(&self, fields: &[FieldId], phv: &Phv) -> Option<(usize, Vec<u64>, bool)> {
        let lpm_sum = |e: &RefEntry| -> i64 {
            e.matches
                .iter()
                .map(|m| match *m {
                    MatchValue::Lpm { prefix_len, .. } => i64::from(prefix_len),
                    _ => 0,
                })
                .sum()
        };
        self.entries
            .iter()
            .filter(|(_, e)| {
                fields.iter().zip(&e.matches).all(|(f, m)| m.matches(phv.get(*f)))
            })
            .min_by_key(|(_, e)| (-i64::from(e.priority), -lpm_sum(e), e.seq))
            .map(|(_, e)| (e.action, e.data.clone(), true))
            .or_else(|| self.default_action.clone().map(|(a, d)| (a, d, false)))
    }
}

/// Raw generated material for one entry: interpreted per key field kind.
type RawEntry = (u64, u64, u8, u8, u8, u64);

struct Scenario {
    ft: FieldTable,
    fields: Vec<(FieldId, MatchKind)>,
    tbl: Table,
    reference: RefTable,
}

fn noop_actions(n: usize) -> Vec<ActionDef> {
    (0..n).map(|i| ActionDef::noop(format!("act{i}"))).collect()
}

fn field_width(ft: &FieldTable, f: FieldId) -> u8 {
    ft.spec(f).bits
}

fn mask_of(bits: u8) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Build a key spec over up to three registered fields from generator soup.
fn build_scenario(spec_seed: &[(u8, u8)], with_default: bool) -> Scenario {
    let mut ft = FieldTable::new();
    let regs = [
        ft.register("meta.k0", WIDTHS[0]).unwrap(),
        ft.register("meta.k1", WIDTHS[1]).unwrap(),
        ft.register("meta.k2", WIDTHS[2]).unwrap(),
    ];
    // Distinct fields per key, in seed order.
    let mut fields: Vec<(FieldId, MatchKind)> = Vec::new();
    for &(f, k) in spec_seed {
        let field = regs[f as usize % regs.len()];
        if fields.iter().any(|(existing, _)| *existing == field) {
            continue;
        }
        fields.push((field, KINDS[k as usize % KINDS.len()]));
    }
    if fields.is_empty() {
        fields.push((regs[0], MatchKind::Exact));
    }
    let mut tbl = Table::new("prop", KeySpec::new(fields.clone()), noop_actions(4), 4096);
    let mut reference = RefTable::default();
    if with_default {
        tbl.set_default_action(3, vec![0xdef]);
        reference.default_action = Some((3, vec![0xdef]));
    }
    Scenario { ft, fields, tbl, reference }
}

/// Interpret one raw entry against the key spec, producing a conforming
/// match value per field. `pri_mod` squeezes priorities into a small range
/// so ties and collisions are common; `pri_mod == 1` keeps every priority
/// at 0, which is what lets the single-field LPM index stay live.
fn make_entry(
    sc: &Scenario,
    raw: RawEntry,
    pri_mod: u8,
    narrow_values: bool,
) -> TableEntry {
    let (v, aux, prefix, pri, action, data) = raw;
    let matches = sc
        .fields
        .iter()
        .enumerate()
        .map(|(i, (f, kind))| {
            let bits = field_width(&sc.ft, *f);
            let m = mask_of(bits);
            // Rotate the raw words per field so multi-field keys don't
            // repeat the same value in every position.
            let v = v.rotate_left(i as u32 * 13) & m;
            let v = if narrow_values { v % 5 } else { v };
            let aux = aux.rotate_left(i as u32 * 7) & m;
            match kind {
                MatchKind::Exact => MatchValue::Exact(v),
                MatchKind::Ternary => MatchValue::Ternary { value: v, mask: aux },
                MatchKind::Lpm => {
                    MatchValue::Lpm { value: v, prefix_len: prefix % (bits + 1), bits }
                }
                MatchKind::Range => {
                    let (lo, hi) = if v <= aux { (v, aux) } else { (aux, v) };
                    MatchValue::Range { lo, hi }
                }
            }
        })
        .collect();
    TableEntry {
        matches,
        priority: i32::from(pri % pri_mod.max(1)),
        action: usize::from(action % 3),
        data: vec![data],
    }
}

/// A key value the match value accepts (a range gives its `lo`).
fn value_of(m: &MatchValue) -> u64 {
    match *m {
        MatchValue::Exact(v) => v,
        MatchValue::Ternary { value, .. } => value,
        MatchValue::Lpm { value, .. } => value,
        MatchValue::Range { lo, .. } => lo,
    }
}

/// A probe PHV: either random or derived from a stored entry's own match
/// values (with a small perturbation) so hits are common.
fn probe_phv(sc: &Scenario, raw: (u64, u8, u8), entries: &[(u64, TableEntry)]) -> Phv {
    let (rand_v, pick, tweak) = raw;
    let mut phv = Phv::new(&sc.ft);
    for (i, (f, _)) in sc.fields.iter().enumerate() {
        let bits = field_width(&sc.ft, *f);
        let base = if !entries.is_empty() && usize::from(pick) % 4 != 0 {
            let (_, e) = &entries[usize::from(pick) % entries.len()];
            value_of(&e.matches[i])
        } else {
            rand_v.rotate_left(i as u32 * 13)
        };
        phv.set(&sc.ft, *f, (base ^ u64::from(tweak % 4)) & mask_of(bits));
    }
    phv
}

/// Run the generated scenario and check indexed lookup, forced-scan lookup,
/// and the reference model all agree on every probe.
fn check_equivalence(
    spec_seed: &[(u8, u8)],
    raw_entries: &[RawEntry],
    deletes: &[u8],
    probes: &[(u64, u8, u8)],
    pri_mod: u8,
    narrow_values: bool,
    with_default: bool,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut sc = build_scenario(spec_seed, with_default);
    let mut live: Vec<(u64, TableEntry)> = Vec::new();
    for (h, raw) in raw_entries.iter().enumerate() {
        let handle = h as u64;
        let entry = make_entry(&sc, *raw, pri_mod, narrow_values);
        sc.tbl.insert(EntryHandle(handle), entry.clone()).unwrap();
        sc.reference.insert(handle, &entry);
        live.push((handle, entry));
    }
    for &d in deletes {
        if live.is_empty() {
            break;
        }
        let handle = live[usize::from(d) % live.len()].0;
        sc.tbl.delete(EntryHandle(handle)).unwrap();
        assert!(sc.reference.delete(handle));
        live.retain(|(h, _)| *h != handle);
    }
    prop_assert_eq!(sc.tbl.len(), live.len());

    let field_ids: Vec<FieldId> = sc.fields.iter().map(|(f, _)| *f).collect();
    for raw_probe in probes {
        let phv = probe_phv(&sc, *raw_probe, &live);
        assert_modes_agree(&mut sc.tbl, &sc.reference, &field_ids, &phv)?;
    }
    Ok(())
}

/// One probe, indexed and forced scan, both against the reference model. Compares on (action name, data, hit): the reference
/// stores the action index, the table hands back the ActionDef borrow.
fn assert_modes_agree(
    tbl: &mut Table,
    reference: &RefTable,
    field_ids: &[FieldId],
    phv: &Phv,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let expected = reference.lookup(field_ids, phv).map(|(a, d, h)| (format!("act{a}"), d, h));
    let indexed = tbl.lookup(phv).map(|r| (r.action.name.clone(), r.data.to_vec(), r.hit));
    tbl.set_indexed(false);
    let scanned = tbl.lookup(phv).map(|r| (r.action.name.clone(), r.data.to_vec(), r.hit));
    tbl.set_indexed(true);
    prop_assert_eq!(&indexed, &expected, "indexed vs reference");
    prop_assert_eq!(&scanned, &expected, "scan vs reference");
    Ok(())
}

/// A table and its reference model kept in step through inserts, deletes
/// and delete-then-reinsert churn (a reinserted entry gets a fresh handle
/// and sequence number, so the insertion-order tie-break must move it to
/// the back of its priority class).
struct Mirror {
    ft: FieldTable,
    field_ids: Vec<FieldId>,
    tbl: Table,
    reference: RefTable,
    live: Vec<(u64, TableEntry)>,
    graveyard: Vec<TableEntry>,
    next_handle: u64,
}

impl Mirror {
    /// A table over freshly registered fields `meta.k<i>` of the given
    /// widths and match kinds.
    fn new(name: &str, spec: &[(u8, MatchKind)]) -> Mirror {
        let mut ft = FieldTable::new();
        let fields: Vec<(FieldId, MatchKind)> = spec
            .iter()
            .enumerate()
            .map(|(i, &(bits, kind))| (ft.register(&format!("meta.k{i}"), bits).unwrap(), kind))
            .collect();
        Mirror {
            field_ids: fields.iter().map(|(f, _)| *f).collect(),
            tbl: Table::new(name, KeySpec::new(fields), noop_actions(4), 1 << 16),
            ft,
            reference: RefTable::default(),
            live: Vec::new(),
            graveyard: Vec::new(),
            next_handle: 0,
        }
    }

    fn insert(&mut self, entry: TableEntry) -> u64 {
        let h = self.next_handle;
        self.next_handle += 1;
        self.tbl.insert(EntryHandle(h), entry.clone()).unwrap();
        self.reference.insert(h, &entry);
        self.live.push((h, entry));
        h
    }

    fn delete(&mut self, handle: u64) {
        let i = self.live.iter().position(|(h, _)| *h == handle).expect("live handle");
        let (_, e) = self.live.remove(i);
        self.tbl.delete(EntryHandle(handle)).unwrap();
        assert!(self.reference.delete(handle));
        self.graveyard.push(e);
    }

    /// `(true, i)` deletes the `i`-th live entry (mod the live count),
    /// `(false, i)` reinserts the `i`-th buried one.
    fn churn(&mut self, ops: &[(bool, u16)]) {
        for &(delete, idx) in ops {
            if delete && !self.live.is_empty() {
                self.delete(self.live[usize::from(idx) % self.live.len()].0);
            } else if !delete && !self.graveyard.is_empty() {
                let e = self.graveyard.remove(usize::from(idx) % self.graveyard.len());
                self.insert(e);
            }
        }
    }

    /// Probe with one value per key field, indexed and scanned.
    fn probe(&mut self, vals: &[u64]) -> Result<(), proptest::test_runner::TestCaseError> {
        let mut phv = Phv::new(&self.ft);
        for (f, v) in self.field_ids.iter().zip(vals) {
            phv.set(&self.ft, *f, *v);
        }
        assert_modes_agree(&mut self.tbl, &self.reference, &self.field_ids, &phv)
    }

    /// What the partitioning must look like when exactly the key fields
    /// `common` are common to every live entry: the number of distinct
    /// value tuples over those fields, and the most entries sharing one.
    fn shape(&self, common: &[usize]) -> (usize, usize) {
        let mut sizes = std::collections::HashMap::new();
        for pick in 0..self.live.len() {
            let vals = self.values_of(pick).unwrap();
            *sizes.entry(common.iter().map(|&i| vals[i]).collect::<Vec<_>>()).or_insert(0) += 1;
        }
        (sizes.len(), sizes.values().copied().max().unwrap_or(0))
    }

    fn partitions(&self) -> (usize, usize) {
        (self.tbl.tss_partitions(), self.tbl.tss_max_partition())
    }

    /// A key the `pick`-th live entry matches, or `None` on an empty table.
    fn values_of(&self, pick: usize) -> Option<Vec<u64>> {
        let (_, e) = self.live.get(pick % self.live.len().max(1))?;
        Some(e.matches.iter().map(value_of).collect())
    }
}

fn ternary(value: u64, mask: u64) -> MatchValue {
    MatchValue::Ternary { value, mask }
}

/// The tuple-space-search stress shape: one ternary field whose masks come
/// from a tiny pool (so groups run deep instead of wide), optionally a
/// second range field, duplicate-heavy priorities, and explicit
/// delete-then-reinsert churn *inside* a mask group.
fn check_tss_churn(
    masks: &[u16],
    raw_entries: &[(u8, u16, u8, u8, u8, u64)],
    ops: &[(bool, u16)],
    probes: &[(u16, u8, u8, u8)],
    with_range: bool,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut spec = vec![(16, MatchKind::Ternary)];
    if with_range {
        spec.push((8, MatchKind::Range));
    }
    let mut m = Mirror::new("tss_churn", &spec);
    for &(mi, v, pri, lo, hi, data) in raw_entries {
        let mut matches =
            vec![ternary(u64::from(v), u64::from(masks[usize::from(mi) % masks.len()]))];
        if with_range {
            let (lo, hi) = (u64::from(lo.min(hi)), u64::from(lo.max(hi)));
            matches.push(MatchValue::Range { lo, hi });
        }
        m.insert(TableEntry {
            matches,
            priority: i32::from(pri % 3),
            action: usize::from(pri % 3),
            data: vec![data],
        });
    }
    m.churn(ops);
    prop_assert_eq!(m.tbl.len(), m.live.len());

    for &(rand_v, pick, tweak, rv) in probes {
        // Mostly probe at/near a live entry's own value so hits and
        // same-group collisions dominate; sometimes fully random.
        let base = match m.values_of(usize::from(pick)) {
            Some(vals) if pick % 4 != 0 => vals[0],
            _ => u64::from(rand_v),
        };
        m.probe(&[base ^ u64::from(tweak % 4), u64::from(rv)][..spec.len()])?;
    }
    Ok(())
}

/// splitmix64: the per-entry randomness of the RPB-shaped property, drawn
/// from one generated seed per program so cases stay small to shrink.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The RPB key: `(prog id, branch id, recirc id, har, sar, mar)`.
const RPB_SPEC: [(u8, MatchKind); 6] = [
    (16, MatchKind::Ternary),
    (16, MatchKind::Ternary),
    (8, MatchKind::Ternary),
    (32, MatchKind::Ternary),
    (32, MatchKind::Ternary),
    (32, MatchKind::Ternary),
];

/// Entry `j` of program `prog`, shaped like `encode_rpb_entry`'s output:
/// program and recirculation id under full masks, a hierarchical prefix
/// mask on the branch id, registers don't-care or masked, priorities from
/// a range of three so ties are the common case.
fn rpb_entry(prog: u64, seed: u64, j: u64) -> TableEntry {
    let r = mix64(seed ^ j.wrapping_mul(0x1_0001));
    let depth = (r % 5) as u32;
    let branch_mask = (0xffffu64 << (16 - depth)) & 0xffff;
    let reg = |r: u64| match r % 4 {
        0 | 1 => MatchValue::ANY,
        2 => ternary((r >> 8) & 0xf, 0xff),
        _ => ternary((r >> 8) & 0xf0, 0xf0),
    };
    TableEntry {
        matches: vec![
            ternary(prog, 0xffff),
            ternary((r >> 16) & branch_mask, branch_mask),
            ternary((r >> 3) & 1, 0xff),
            reg(r >> 32),
            reg(r >> 40),
            reg(r >> 48),
        ],
        priority: ((r >> 56) % 3) as i32,
        action: (r % 3) as usize,
        data: vec![prog, j],
    }
}

/// An RPB table of `programs` residents with `per` entries each.
fn rpb_mirror(programs: u64, per: u64) -> Mirror {
    let mut m = Mirror::new("rpb", &RPB_SPEC);
    for prog in 1..=programs {
        for j in 0..per {
            m.insert(rpb_entry(prog, mix64(prog), j));
        }
    }
    m
}

/// Probe every live entry's own values, with and without register noise,
/// plus one program id nobody owns.
fn probe_all(m: &mut Mirror) {
    for pick in 0..m.live.len() {
        let mut vals = m.values_of(pick).unwrap();
        m.probe(&vals).unwrap();
        vals[3] ^= 0x100;
        vals[1] ^= 1;
        m.probe(&vals).unwrap();
    }
    m.probe(&[0xfffe, 0, 0, 0, 0, 0]).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("P4RP_PROPTEST_CASES")
            .ok().and_then(|s| s.parse().ok()).unwrap_or(64),
        .. ProptestConfig::default()
    })]

    /// Mixed key kinds, duplicate-heavy values, interleaved deletes: the
    /// indexed lookup (whatever path the table chose — exact index, LPM
    /// buckets, degraded scan) agrees with the reference at every probe.
    #[test]
    fn indexed_lookup_matches_reference_scan(
        spec_seed in prop::collection::vec((any::<u8>(), any::<u8>()), 1..4),
        raw_entries in prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()),
            0..24,
        ),
        deletes in prop::collection::vec(any::<u8>(), 0..12),
        probes in prop::collection::vec((any::<u64>(), any::<u8>(), any::<u8>()), 1..16),
        pri_mod in 1u8..4,
        narrow in any::<bool>(),
        with_default in any::<bool>(),
    ) {
        check_equivalence(&spec_seed, &raw_entries, &deletes, &probes, pri_mod, narrow, with_default)?;
    }

    /// All-exact keys with values squeezed into a tiny domain: duplicate
    /// key tuples are the common case, so winner selection and
    /// delete-promotion inside the hash index get exercised hard.
    #[test]
    fn exact_index_survives_duplicate_churn(
        nfields in 1u8..4,
        raw_entries in prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()),
            0..32,
        ),
        deletes in prop::collection::vec(any::<u8>(), 0..24),
        probes in prop::collection::vec((any::<u64>(), any::<u8>(), any::<u8>()), 1..16),
        pri_mod in 1u8..4,
    ) {
        let spec_seed: Vec<(u8, u8)> = (0..nfields).map(|i| (i, 0)).collect();
        check_equivalence(&spec_seed, &raw_entries, &deletes, &probes, pri_mod, true, false)?;
    }

    /// Single-field LPM with uniform priority — the shape the per-prefix
    /// bucket index serves — including prefix-length ties, bucket-emptying
    /// deletes, and /0 catch-alls.
    #[test]
    fn lpm_index_longest_prefix_equivalence(
        raw_entries in prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()),
            0..24,
        ),
        deletes in prop::collection::vec(any::<u8>(), 0..16),
        probes in prop::collection::vec((any::<u64>(), any::<u8>(), any::<u8>()), 1..16),
    ) {
        // spec_seed (0, 2): field 0, KINDS[2] = Lpm; pri_mod 1 keeps the
        // priorities uniform so the table keeps its LPM index.
        check_equivalence(&[(0, 2)], &raw_entries, &deletes, &probes, 1, false, false)?;
    }

    /// Mixed-priority LPM degrades to the scan; the result must *still*
    /// track the reference (priority outranks prefix length).
    #[test]
    fn mixed_priority_lpm_stays_equivalent(
        raw_entries in prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()),
            2..24,
        ),
        probes in prop::collection::vec((any::<u64>(), any::<u8>(), any::<u8>()), 1..16),
    ) {
        check_equivalence(&[(0, 2)], &raw_entries, &[], &probes, 3, false, true)?;
    }

    /// Deep mask groups: every ternary mask drawn from a pool of at most
    /// three, so the tuple-space groups hold many entries and duplicate
    /// priorities force the insertion-order tie-break, under
    /// delete-then-reinsert churn inside the groups.
    #[test]
    fn tss_deep_groups_survive_reinsert_churn(
        masks in prop::collection::vec(any::<u16>(), 1..4),
        raw_entries in prop::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()),
            1..24,
        ),
        ops in prop::collection::vec((any::<bool>(), any::<u16>()), 0..24),
        probes in prop::collection::vec(
            (any::<u16>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..16,
        ),
    ) {
        check_tss_churn(&masks, &raw_entries, &ops, &probes, false)?;
    }

    /// Same shape with a range field appended to the key: the single-range
    /// interval probe inside each bucket must agree with the reference,
    /// including overlapping ranges resolved by priority and seq.
    #[test]
    fn tss_ternary_range_mixed_equivalence(
        masks in prop::collection::vec(any::<u16>(), 1..3),
        raw_entries in prop::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()),
            1..20,
        ),
        ops in prop::collection::vec((any::<bool>(), any::<u16>()), 0..16),
        probes in prop::collection::vec(
            (any::<u16>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..16,
        ),
    ) {
        check_tss_churn(&masks, &raw_entries, &ops, &probes, true)?;
    }

    /// The loaded-switch shape: hundreds of programs own one to six
    /// entries each in one RPB table, so the table is far past the scan
    /// cutoff while each common-mask partition stays at or near it. Every
    /// probe — a resident's own key with noise, or a program id nobody
    /// owns — agrees indexed and scanned with the reference, through
    /// delete/reinsert churn.
    #[test]
    fn rpb_shaped_partitions_survive_churn(
        programs in prop::collection::vec((any::<u64>(), 1u64..=6), 100..300),
        ops in prop::collection::vec((any::<bool>(), any::<u16>()), 0..64),
        probes in prop::collection::vec((any::<u16>(), any::<u64>()), 1..48),
    ) {
        let mut m = Mirror::new("rpb", &RPB_SPEC);
        for (i, &(seed, n)) in programs.iter().enumerate() {
            for j in 0..n {
                m.insert(rpb_entry(i as u64 + 1, seed, j));
            }
        }
        m.churn(&ops);
        prop_assert_eq!(m.tbl.len(), m.live.len());
        prop_assert!(m.tbl.tss_partitions() > 8 || m.live.len() < 64);
        for &(pick, noise) in &probes {
            let mut vals = m.values_of(usize::from(pick)).unwrap_or_else(|| vec![0; 6]);
            match noise % 8 {
                // An absent program id: no partition, one probe.
                0 => vals[0] = 0x8000 | (noise >> 8) & 0x7fff,
                // The other recirculation pass.
                1 => vals[2] ^= 1,
                // Noise in the branch and register bits the entry may or
                // may not constrain.
                _ => {
                    vals[1] ^= (noise >> 8) & 0xffff;
                    vals[3] ^= (noise >> 24) & 0xff;
                    vals[4] ^= (noise >> 32) & 0xff;
                    vals[5] ^= (noise >> 40) & 0xff;
                }
            }
            m.probe(&vals)?;
        }
    }
}

#[test]
fn catch_all_collapses_partitions_and_deleting_it_stays_sound() {
    let mut m = rpb_mirror(24, 3);
    // Program and recirculation id are under full masks in every entry.
    assert_eq!(m.partitions(), m.shape(&[0, 2]));
    assert!(m.tbl.tss_partitions() >= 24);
    probe_all(&mut m);
    let any = m.insert(TableEntry {
        matches: vec![MatchValue::ANY; 6],
        priority: -1,
        action: 3,
        data: vec![0xa11],
    });
    // Nothing is common to every entry any more: one partition.
    assert_eq!(m.partitions(), (1, 73));
    probe_all(&mut m);
    m.delete(any);
    // `common` never widens on delete; the coarser filing is still exact.
    assert_eq!(m.partitions(), (1, 72));
    probe_all(&mut m);
}

#[test]
fn partition_crosses_the_scan_cutoff_both_ways() {
    let mut m = rpb_mirror(16, 2);
    assert_eq!(m.tbl.tss_groups(), 0);
    // Program 5 grows to 30 entries: its partitions alone get mask groups.
    let grown: Vec<u64> = (2..30).map(|j| m.insert(rpb_entry(5, mix64(5), j))).collect();
    assert_eq!(m.partitions(), m.shape(&[0, 2]));
    assert!(m.tbl.tss_max_partition() > 8 && m.tbl.tss_groups() > 1);
    probe_all(&mut m);
    // One at a time back down through the cutoff.
    for h in grown {
        m.delete(h);
        probe_all(&mut m);
    }
    assert_eq!(m.partitions(), m.shape(&[0, 2]));
    assert!(m.tbl.tss_max_partition() <= 2);
    assert_eq!(m.tbl.tss_groups(), 0);
}

#[test]
fn emptied_table_refills_under_different_masks() {
    let mut m = Mirror::new("refill", &[(32, MatchKind::Ternary), (16, MatchKind::Ternary)]);
    let fill = |m: &mut Mirror, by_second: bool| {
        for i in 0..20u64 {
            let (a, b) = (ternary(i << 8, 0xff00), MatchValue::ANY);
            let matches = if by_second { vec![b, ternary(i, 0x00ff)] } else { vec![a, b] };
            m.insert(TableEntry { matches, priority: 0, action: 0, data: vec![i] });
        }
    };
    let probe_grid = |m: &mut Mirror| {
        for i in 0..24u64 {
            m.probe(&[i << 8 | 0x11, i]).unwrap();
        }
    };
    fill(&mut m, false);
    assert_eq!(m.tbl.tss_partitions(), 20);
    probe_grid(&mut m);
    while let Some(&(h, _)) = m.live.first() {
        m.delete(h);
    }
    assert_eq!(m.tbl.tss_partitions(), 0);
    // The first fill's common bits are all don't-care now; had the mask
    // not reset, everything would land in one partition.
    fill(&mut m, true);
    assert_eq!(m.tbl.tss_partitions(), 20);
    probe_grid(&mut m);
}

#[test]
fn range_field_partitions_on_the_other_fields_only() {
    let mut m = Mirror::new("ranged", &[(16, MatchKind::Ternary), (16, MatchKind::Range)]);
    for id in 0..12u64 {
        // Id 7 holds twelve overlapping ranges (an interval-probed bucket
        // inside its partition), the rest two each (scanned).
        for j in 0..if id == 7 { 12 } else { 2 } {
            m.insert(TableEntry {
                matches: vec![ternary(id, 0xffff), MatchValue::Range { lo: j * 40, hi: j * 40 + 100 }],
                priority: (j % 3) as i32,
                action: 0,
                data: vec![id, j],
            });
        }
    }
    assert_eq!((m.partitions(), m.tbl.tss_groups()), ((12, 12), 1));
    for id in [0u64, 7, 11, 12] {
        for port in (0..640).step_by(13) {
            m.probe(&[id, port]).unwrap();
        }
    }
}

#[test]
fn colliding_partition_keys_share_a_partition_and_still_match_exactly() {
    use rmt_sim::fxhash::FxHasher;
    use std::hash::Hasher;
    // Two full-mask 64-bit fields: the partition key is the Fx fold
    // `(rotl5(h0) ^ w1) * K` with `h0 = fold(w0)`, so for any two first
    // words the second can be solved to cancel the difference.
    let h0 = |w0: u64| {
        let mut h = FxHasher::default();
        h.write_u64(w0);
        h.finish().rotate_left(5)
    };
    let (a, b) = ([0x1111u64, 0x2222], [0x3333u64, 0x2222 ^ h0(0x1111) ^ h0(0x3333)]);
    let mut m = Mirror::new("collide", &[(64, MatchKind::Ternary), (64, MatchKind::Ternary)]);
    let mut keys = vec![a, b];
    keys.extend((0..10u64).map(|i| [0x5000 + i, i]));
    for (i, k) in keys.iter().enumerate() {
        m.insert(TableEntry {
            matches: vec![ternary(k[0], u64::MAX), ternary(k[1], u64::MAX)],
            priority: 0,
            action: 0,
            data: vec![i as u64],
        });
    }
    // Twelve distinct keys, eleven partitions: `a` and `b` were merged.
    assert_eq!(m.partitions(), (11, 2));
    for k in &keys {
        m.probe(k).unwrap();
    }
    m.probe(&[a[0], b[1]]).unwrap();
    m.delete(0);
    m.probe(&a).unwrap();
    m.probe(&b).unwrap();
}

/// Switch-level guard: a loaded switch (72 mixed-family residents, one of
/// them two-pass, so the RPB tables are past the scan cutoff and
/// partitioned by program) decides every frame exactly as its
/// scan-forced clone does — same emitted frames, reports, drops and pass
/// counts, and the same hit/miss count on every table — with all
/// residents installed, after half of them were revoked, and once a
/// resident filtering on another field has merged the init-block filter
/// table into a single partition that only its mask groups keep fast.
#[test]
fn loaded_switch_matches_its_scan_forced_clone() {
    use p4runpro::netpkt::FiveTuple;
    use p4runpro::p4rp_progs::workloads::{instance, Family, WorkloadParams};
    use p4runpro::traffic::gen::frame_for;
    use p4runpro::Controller;
    use std::net::Ipv4Addr;

    const SINGLE_PASS: [Family; 12] = [
        Family::Cache,
        Family::Lb,
        Family::Dqacc,
        Family::L2Fwd,
        Family::L3Route,
        Family::Tunnel,
        Family::Calculator,
        Family::Ecn,
        Family::Cms,
        Family::Bf,
        Family::SuMax,
        Family::Hll,
    ];
    const RESIDENTS: usize = 72;
    const TWO_PASS_AT: usize = 5;

    let family_of = |i: usize| if i == TWO_PASS_AT { Family::Hh } else { SINGLE_PASS[i % SINGLE_PASS.len()] };
    let mut ctl = Controller::with_defaults().unwrap();
    let mut names = Vec::new();
    for i in 0..RESIDENTS {
        ctl.deploy(&instance(family_of(i), i, WorkloadParams::default())).unwrap();
        names.push(format!("{}_{i:05}", family_of(i).name()));
    }
    let stats = ctl.switch().table_index_stats();
    assert!(
        stats.iter().any(|t| t.mode == "tss" && t.entries > 8 && t.tss_partitions > 8),
        "no RPB table is past the scan cutoff: the guard would only test the short scan"
    );

    // Residents' own addresses (instance `i` filters on 10.0.i.1) and a
    // quarter strangers, TCP and UDP, ports varying per frame; the last
    // third sends every eighth frame to port 7777 as well.
    let frames: Vec<Vec<u8>> = (0..4500u64)
        .map(|n| {
            let r = mix64(n);
            let host = if r.is_multiple_of(4) { 200 + (r >> 8) % 50 } else { (r >> 8) % RESIDENTS as u64 };
            let tuple = FiveTuple {
                src_addr: Ipv4Addr::new(10, 1, (r >> 16) as u8, 1 + (r >> 24) as u8 % 200),
                dst_addr: Ipv4Addr::new(10, 0, host as u8, 1),
                src_port: 1024 + (r >> 32) as u16 % 4096,
                dst_port: if n >= 3000 && r & 0x70 == 0 { 7777 } else { 1 + (r >> 48) as u16 % 1023 },
                protocol: if r & 2 == 0 { 6 } else { 17 },
            };
            frame_for(&tuple, 16 + (r >> 40) as usize % 200)
        })
        .collect();

    let mut replayed_two_pass = false;
    let mut compare = |ctl: &mut Controller, frames: &[Vec<u8>], when: &str| {
        let indexed = ctl.switch_mut();
        let mut scanned = indexed.clone();
        scanned.set_indexed_all(false);
        for (n, frame) in frames.iter().enumerate() {
            let a = indexed.process_frame(0, frame).unwrap();
            let b = scanned.process_frame(0, frame).unwrap();
            assert_eq!(
                (&a.emitted, &a.reports, a.dropped, a.passes),
                (&b.emitted, &b.reports, b.dropped, b.passes),
                "{when}: frame {n} decided differently by the index and the scan"
            );
            replayed_two_pass |= a.passes > 1;
        }
        let counters = |sw: &p4runpro::rmt_sim::switch::Switch| -> Vec<(String, u64, u64)> {
            sw.table_index_stats().into_iter().map(|t| (t.name, t.hits, t.misses)).collect()
        };
        assert_eq!(counters(indexed), counters(&scanned), "{when}: table hit/miss counters");
    };

    compare(&mut ctl, &frames[..1500], "all resident");
    for name in names.iter().step_by(2) {
        ctl.revoke(name).unwrap();
    }
    compare(&mut ctl, &frames[1500..3000], "half revoked");

    // Why the tuple-space groups stay: one resident filtering on another
    // field (the paper's NetCache beside its L3 programs) leaves the
    // init-block filters no common bit, so all 73 share one partition —
    // two mask groups, not a 73-entry scan, answer it.
    for i in (0..RESIDENTS).step_by(2) {
        ctl.deploy(&instance(family_of(i), i, WorkloadParams::default())).unwrap();
    }
    ctl.deploy("program nc(<hdr.udp.dst_port, 7777, 0xffff>) { FORWARD(7); }").unwrap();
    let stats = ctl.switch().table_index_stats();
    let filter = stats.iter().find(|t| t.name == "init_filter").expect("init-block filter table");
    assert_eq!(
        (filter.entries, filter.tss_partitions, filter.tss_max_partition, filter.tss_groups),
        (RESIDENTS as u64 + 1, 1, RESIDENTS as u64 + 1, 2)
    );
    compare(&mut ctl, &frames[3000..], "mixed-field filters");
    assert!(replayed_two_pass, "the two-pass resident never recirculated a frame");
}
