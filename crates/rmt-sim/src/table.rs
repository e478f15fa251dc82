//! Match-action tables.
//!
//! Each table declares a key (a list of PHV fields with a match kind per
//! field), a set of actions (see [`crate::action`]), and a capacity. Entries
//! are inserted and deleted one at a time — the simulator preserves RMT's
//! per-entry update atomicity, which is the foundation of the paper's
//! consistent-update argument (§4.3): a packet observes either the table
//! before or after any single entry write, never a torn state.
//!
//! # Lookup fast paths
//!
//! Lookup mirrors the physical memories of a Tofino-class stage instead of
//! scanning entries linearly:
//!
//! * **all-exact keys** — a hash index from the key tuple to the winning
//!   entry, the software analogue of hash-addressed exact-match SRAM;
//! * **single-field LPM** — per-prefix-length hash buckets probed longest
//!   prefix first, the classic algorithmic-LPM decomposition;
//! * **ternary / range / mixed keys** — common-mask partitions: entries
//!   are filed under the key bits *every* live entry constrains, so one
//!   hash probe selects the few entries that can match at all. A partition
//!   (or whole table) of at most [`TSS_SCAN_CUTOFF`] entries is scanned; a
//!   larger partition runs tuple-space search over its members: entries
//!   grouped by effective per-field mask tuple, each group hashing the
//!   masked key, groups probed in best-possible-precedence order with
//!   early exit, single-range-field groups by interval binary search —
//!   the software analogue of an algorithmic TCAM (see `docs/PERF.md`).
//!
//! All indexes are maintained incrementally by `insert`/`delete`, so RMT's
//! per-entry update atomicity is untouched: every control-plane operation
//! leaves the index consistent with the entry store. Entries whose match
//! values do not conform to the declared key spec (or exotic shapes such as
//! mixed LPM widths or mixed LPM priorities) rebuild the table's index as
//! tuple-space search, which represents every match-value shape; only keys
//! wider than [`MAX_INDEX_KEY_FIELDS`] fall back to the bare ordered scan.
//! The priority-ordered scan remains the semantic authority — force it with
//! [`Table::set_indexed`]`(false)`; the indexes are pure accelerations of
//! it.

use crate::action::ActionDef;
use crate::error::{SimError, SimResult};
use crate::fxhash::{FxHashMap, FxHasher};
use crate::phv::{FieldId, Phv};
use std::hash::Hasher;

/// How one key field matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchKind {
    /// Exact.
    Exact,
    /// Ternary.
    Ternary,
    /// Lpm.
    Lpm,
    /// Range.
    Range,
}

/// The key specification of a table.
#[derive(Debug, Clone, Default)]
pub struct KeySpec {
    /// Fields.
    pub fields: Vec<(FieldId, MatchKind)>,
}

impl KeySpec {
    /// Construct with defaults appropriate to the type.
    pub fn new(fields: Vec<(FieldId, MatchKind)>) -> KeySpec {
        KeySpec { fields }
    }

    /// Whether any field requires TCAM (ternary or range).
    pub(crate) fn needs_tcam(&self) -> bool {
        self.fields
            .iter()
            .any(|(_, k)| matches!(k, MatchKind::Ternary | MatchKind::Lpm | MatchKind::Range))
    }
}

/// The match value of one key field in one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchValue {
    /// Exact.
    Exact(u64),
    /// Matches when `phv & mask == value & mask`. A mask of 0 is don't-care.
    /// Ternary.
    Ternary { value: u64, mask: u64 },
    /// Longest-prefix match on the top `prefix_len` bits of a `bits`-wide
    /// field.
    /// Lpm.
    Lpm { value: u64, prefix_len: u8, bits: u8 },
    /// Inclusive range.
    /// Range.
    Range { lo: u64, hi: u64 },
}

impl MatchValue {
    /// Don't-care ternary value.
    pub const ANY: MatchValue = MatchValue::Ternary { value: 0, mask: 0 };

    /// Matches.
    pub fn matches(&self, v: u64) -> bool {
        match *self {
            MatchValue::Exact(e) => v == e,
            MatchValue::Ternary { value, mask } => v & mask == value & mask,
            MatchValue::Lpm { value, prefix_len, bits } => {
                if prefix_len == 0 {
                    true
                } else {
                    let shift = u32::from(bits - prefix_len.min(bits));
                    (v >> shift) == (value >> shift)
                }
            }
            MatchValue::Range { lo, hi } => v >= lo && v <= hi,
        }
    }

    /// Specificity used for LPM ordering.
    fn lpm_len(&self) -> u8 {
        match *self {
            MatchValue::Lpm { prefix_len, .. } => prefix_len,
            _ => 0,
        }
    }
}

/// The prefix key a value hashes to in an LPM bucket of `prefix_len` over a
/// `bits`-wide field: both stored values and probe values map through this,
/// so equality in the bucket is exactly [`MatchValue::matches`].
fn lpm_bucket_key(v: u64, prefix_len: u8, bits: u8) -> u64 {
    if prefix_len == 0 {
        0
    } else {
        v >> u32::from(bits - prefix_len.min(bits))
    }
}

/// A stable handle to an inserted entry, unique per switch lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntryHandle(pub u64);

/// One table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableEntry {
    /// Matches.
    pub matches: Vec<MatchValue>,
    /// Higher priority wins among ternary tables; ties broken by insertion
    /// order (earlier wins), mirroring TCAM physical ordering.
    pub priority: i32,
    /// Action.
    pub action: usize,
    /// Immediate action data stored with the entry (operands).
    pub data: Vec<u64>,
}

impl TableEntry {
    /// No key, no data: holds nothing on the heap.
    pub(crate) const EMPTY: TableEntry =
        TableEntry { matches: Vec::new(), priority: 0, action: 0, data: Vec::new() };

    fn lpm_sum(&self) -> u32 {
        self.matches.iter().map(|m| u32::from(m.lpm_len())).sum()
    }
}

#[derive(Debug, Clone)]
struct StoredEntry {
    handle: EntryHandle,
    /// First-match precedence, fixed when the entry is stored: every
    /// binary search and filing step of insert/delete compares it.
    rank: Rank,
    entry: TableEntry,
}

/// First-match precedence rank (see [`StoredEntry::new`]). Lower is
/// better; `seq` is unique per entry, so the order is strict.
type Rank = (i64, i64, u64);

impl StoredEntry {
    /// Rank by the total order of first-match precedence: priority desc,
    /// LPM length desc, insertion order (`seq`) asc. `seq` is unique, so
    /// the order is strict.
    fn new(handle: EntryHandle, seq: u64, entry: TableEntry) -> StoredEntry {
        let rank = (-i64::from(entry.priority), -i64::from(entry.lpm_sum()), seq);
        StoredEntry { handle, rank, entry }
    }
}

/// Indexed keys wider than this fall back to the ordered scan: the exact
/// index and the tuple-space groups build their masked probe tuples in a
/// fixed stack array of this size.
const MAX_INDEX_KEY_FIELDS: usize = 16;

/// Up to this many candidates are scanned in rank order instead of hashed:
/// a few linear compares beat even one group-hash probe ("when the scan
/// still wins" in `docs/PERF.md`). It bounds a whole table (a lightly
/// loaded switch) and one common-mask partition of a large one (a loaded
/// RPB table holds up to 2 048 entries, one program a handful of them).
const TSS_SCAN_CUTOFF: usize = 8;

/// The effective per-field mask of one match value: the set of key bits
/// that decide the match. `Exact` is a full mask, `Ternary` carries its
/// own, `Lpm` is the top-`prefix_len` prefix mask; `Range` has none —
/// interval containment is not a masked-equality predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EffMask {
    Mask(u64),
    Range,
}

/// The masked-equality mask equivalent to an LPM match: `v` matches iff
/// `v & mask == value & mask` (the shift compare in
/// [`MatchValue::matches`] keeps every bit from `bits - prefix_len` up).
fn lpm_eff_mask(prefix_len: u8, bits: u8) -> u64 {
    if prefix_len == 0 {
        0
    } else {
        u64::MAX << u32::from(bits - prefix_len.min(bits))
    }
}

fn eff_mask(mv: &MatchValue) -> EffMask {
    match *mv {
        MatchValue::Exact(_) => EffMask::Mask(u64::MAX),
        MatchValue::Ternary { mask, .. } => EffMask::Mask(mask),
        MatchValue::Lpm { prefix_len, bits, .. } => EffMask::Mask(lpm_eff_mask(prefix_len, bits)),
        MatchValue::Range { .. } => EffMask::Range,
    }
}

/// The effective mask as an AND-mask for building hash probes: a range has
/// no maskable bits and contributes 0.
fn mask_word(mv: &MatchValue) -> u64 {
    match eff_mask(mv) {
        EffMask::Mask(m) => m,
        EffMask::Range => 0,
    }
}

/// The representative value word the group mask applies to; ranges carry
/// no maskable word.
fn value_word(mv: &MatchValue) -> u64 {
    match *mv {
        MatchValue::Exact(v) => v,
        MatchValue::Ternary { value, .. } => value,
        MatchValue::Lpm { value, .. } => value,
        MatchValue::Range { .. } => 0,
    }
}

/// One member of a bucket's sorted interval list (single-range-field
/// groups): `max_hi` is the running maximum of `hi` over this and every
/// earlier interval, bounding the backward probe scan.
#[derive(Debug, Clone, Copy)]
struct Interval {
    lo: u64,
    hi: u64,
    max_hi: u64,
    rank: Rank,
    slot: u32,
}

/// Recompute the `max_hi` prefix maxima after an interval insert/delete.
fn fix_max_hi(intervals: &mut [Interval]) {
    let mut m = 0u64;
    for it in intervals.iter_mut() {
        m = m.max(it.hi);
        it.max_hi = m;
    }
}

/// The entries of one tuple-space group that share a masked key.
#[derive(Debug, Clone, Default)]
struct TssBucket {
    /// `(rank, slot)` in rank order — the first member whose range fields
    /// also match the probe is the bucket's winner.
    members: Vec<(Rank, u32)>,
    /// Single-range-field groups only: the members re-sorted by `lo` for
    /// the binary-search interval probe. Maintained on insert/delete
    /// (control-plane cost), read-only during lookup.
    intervals: Vec<Interval>,
}

/// One tuple-space group: every entry whose per-field effective masks are
/// identical. Within the group a masked probe is an exact-match hash
/// lookup.
#[derive(Debug, Clone)]
struct TssGroup {
    /// Group identity: one effective mask per key field.
    id: Box<[EffMask]>,
    /// AND-masks for probe construction (`Range` fields contribute 0).
    key_masks: Box<[u64]>,
    /// Index of the single range field when exactly one exists (arming
    /// the interval probe); `None` for zero or two-plus range fields.
    single_range: Option<usize>,
    /// Number of range fields in the group's key.
    range_fields: usize,
    /// Best (minimum) rank over every member — the probe-order key.
    /// Ranks are unique per live entry, so group keys never tie.
    best_rank: Rank,
    /// Masked key tuple → members.
    buckets: FxHashMap<Box<[u64]>, TssBucket>,
    /// Member count.
    len: usize,
}

/// One common-mask partition: the live entries that agree on every key
/// bit the table's `common` mask covers.
#[derive(Debug, Clone, Default)]
struct TssPartition {
    /// Slots in rank order; scanned with the full match check while there
    /// are at most [`TSS_SCAN_CUTOFF`] of them.
    members: Vec<u32>,
    /// Tuple-space groups over `members`, sorted by `best_rank` ascending
    /// so lookup can stop as soon as its current best match outranks every
    /// remaining group's best possible member. Non-empty exactly while
    /// the partition holds more than [`TSS_SCAN_CUTOFF`] members.
    groups: Vec<TssGroup>,
}

/// Common-mask partitions over ternary/range/mixed keys. An entry that
/// matches key `k` has `k & m == v & m` under its own mask `m ⊇ common`,
/// so it lives in partition `k & common`: one hash probe finds every
/// candidate. With no common bit there is one partition — plain
/// tuple-space search.
#[derive(Debug, Clone)]
struct TssIndex {
    /// Per-field AND of every filed entry's effective mask (range fields
    /// contribute 0). Only narrows — an insert that clears a bit refiles
    /// every entry; a delete never widens it (a subset of the true common
    /// bits merely merges partitions); all-ones again once the table
    /// empties or `clear()`s.
    common: Box<[u64]>,
    /// 64-bit fold of `value & common` → partition. A fold collision
    /// merges two partitions; every candidate is still fully matched.
    partitions: FxHashMap<u64, TssPartition>,
}

impl TssIndex {
    /// The partition key of one key tuple (an entry's value words or a
    /// probe's field values): only fields with a common bit are hashed.
    fn partition_key(&self, words: impl Iterator<Item = u64>) -> u64 {
        let mut h = FxHasher::default();
        for (&c, w) in self.common.iter().zip(words) {
            if c != 0 {
                h.write_u64(w & c);
            }
        }
        // The multiplicative fold leaves its entropy in the high bits and
        // the map picks buckets by the low ones: swap the halves.
        h.finish().rotate_left(32)
    }

    /// Clear from `common` every bit `entry` leaves unconstrained; whether
    /// any was cleared.
    fn narrow(common: &mut [u64], entry: &TableEntry) -> bool {
        let mut narrowed = false;
        for (c, mv) in common.iter_mut().zip(&entry.matches) {
            let m = mask_word(mv);
            narrowed |= *c & !m != 0;
            *c &= m;
        }
        narrowed
    }
}

/// The per-prefix-length buckets of the single-field LPM index, sorted by
/// `prefix_len` descending so the first probe hit is the longest match.
#[derive(Debug, Clone, Default)]
struct LpmIndex {
    /// Field width shared by every entry; mixed widths degrade the table.
    bits: Option<u8>,
    /// Priority shared by every entry: the scan orders priority above
    /// prefix length, so a mixed-priority LPM table cannot use
    /// longest-prefix-first probing and degrades.
    priority: Option<i32>,
    buckets: Vec<(u8, FxHashMap<u64, u32>)>,
}

#[derive(Debug, Clone)]
enum Index {
    /// Key tuple → winning (first-match) slot.
    Exact(FxHashMap<Box<[u64]>, u32>),
    /// Single-field longest-prefix match.
    Lpm(LpmIndex),
    /// Tuple-space search (ternary/range/mixed keys, and any entry shape
    /// the Exact/Lpm indexes cannot represent).
    Tss(TssIndex),
    /// Priority-ordered scan only (keys too wide to probe on the stack).
    Scan,
}

/// A match-action table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Human-readable name.
    pub name: String,
    /// Key.
    pub key: KeySpec,
    /// Actions.
    pub actions: Vec<ActionDef>,
    /// Capacity.
    pub capacity: usize,
    /// Algorithmic TCAM: the table supports ternary matching but is backed
    /// by SRAM (a real Tofino capability), trading SRAM for TCAM blocks.
    /// Used by the wide, deep initialization-block filtering table.
    pub atcam: bool,
    /// Action executed on a miss, if any.
    pub default_action: Option<(usize, Vec<u64>)>,
    /// Slab of entries; slots are stable across unrelated inserts/deletes,
    /// so the indexes and the handle map can reference them by id.
    slots: Vec<Option<StoredEntry>>,
    free_slots: Vec<u32>,
    /// Slot ids in first-match precedence order (see [`StoredEntry::new`]),
    /// maintained by binary-search insertion.
    order: Vec<u32>,
    /// Where in `order` the last insert went, plus one: where the next
    /// insert is tried first ([`Table::file`]). Only a hint.
    order_hint: usize,
    by_handle: FxHashMap<EntryHandle, u32>,
    index: Index,
    /// When false, lookups take the ordered scan even if an index is
    /// maintained — the scan is the semantic authority the indexes are
    /// checked against.
    indexed: bool,
    next_seq: u64,
    /// Lookup counter for utilization statistics.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
}

/// Outcome of a table lookup.
#[derive(Debug, Clone, Copy)]
pub struct LookupResult<'a> {
    /// Action.
    pub action: &'a ActionDef,
    /// Data.
    pub data: &'a [u64],
    /// Hit.
    pub hit: bool,
}

/// Where a [`Table::lookup_slot`] hit found its action data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DataSrc {
    /// The matched entry's immediate data.
    Entry(u32),
    /// The default action's data.
    Default,
}

/// Outcome of a [`Table::lookup_slot`]: plain indices, so the caller can
/// split-borrow the action and data against its own mutable state without
/// cloning either (the zero-allocation dispatch path in
/// [`crate::pipeline::Stage::run`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotLookup {
    /// Index into [`Table::actions`].
    pub action: usize,
    /// Where the action data lives.
    pub src: DataSrc,
    /// Hit.
    pub hit: bool,
}

impl Table {
    /// Construct with defaults appropriate to the type.
    pub fn new(name: impl Into<String>, key: KeySpec, actions: Vec<ActionDef>, capacity: usize) -> Table {
        let index = Self::fresh_index(&key);
        Table {
            name: name.into(),
            key,
            actions,
            capacity,
            atcam: false,
            default_action: None,
            slots: Vec::new(),
            free_slots: Vec::new(),
            order: Vec::new(),
            order_hint: 0,
            by_handle: FxHashMap::default(),
            index,
            indexed: true,
            next_seq: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Mark this table as algorithmic TCAM (SRAM-backed ternary).
    pub fn with_atcam(mut self) -> Table {
        self.atcam = true;
        self
    }

    /// Set default action.
    pub fn set_default_action(&mut self, action: usize, data: Vec<u64>) {
        self.default_action = Some((action, data));
    }

    /// Force lookups onto the priority-ordered scan (`false`) or the
    /// maintained index (`true`, the default). The scan is the semantic
    /// reference; this knob exists to measure the index against it.
    pub fn set_indexed(&mut self, on: bool) {
        self.indexed = on;
    }

    /// Whether lookups currently take an index fast path (an index exists
    /// and is enabled).
    pub(crate) fn is_indexed(&self) -> bool {
        self.indexed && !matches!(self.index, Index::Scan)
    }

    /// Which structure serves indexed lookups: `"exact"`, `"lpm"`,
    /// `"tss"`, or `"scan"`.
    pub fn index_mode(&self) -> &'static str {
        match self.index {
            Index::Exact(_) => "exact",
            Index::Lpm(_) => "lpm",
            Index::Tss(_) => "tss",
            Index::Scan => "scan",
        }
    }

    /// The common-mask partitions (none unless the TSS index is active).
    fn tss_parts(&self) -> impl Iterator<Item = &TssPartition> {
        let tss = match &self.index {
            Index::Tss(tss) => Some(tss),
            _ => None,
        };
        tss.into_iter().flat_map(|t| t.partitions.values())
    }

    /// Tuple-space mask-group count, summed over the partitions large
    /// enough to keep groups (0 unless the TSS index is active).
    pub fn tss_groups(&self) -> usize {
        self.tss_parts().map(|p| p.groups.len()).sum()
    }

    /// Common-mask partition count (0 unless the TSS index is active).
    pub fn tss_partitions(&self) -> usize {
        self.tss_parts().count()
    }

    /// Member count of the largest partition — the number that predicts
    /// lookup cost (0 unless the TSS index is active).
    pub fn tss_max_partition(&self) -> usize {
        self.tss_parts().map(|p| p.members.len()).max().unwrap_or(0)
    }

    /// Number of installed entries.
    #[allow(clippy::len_without_is_empty)] // no caller asks "is it empty?"
    pub fn len(&self) -> usize {
        self.order.len()
    }

    fn stored(&self, slot: u32) -> &StoredEntry {
        self.slots[slot as usize].as_ref().expect("live slot")
    }

    /// The chosen index cannot represent this table's entries: rebuild it
    /// as tuple-space search, which indexes every match-value shape, or
    /// drop to the bare scan for keys too wide to probe on the stack. The
    /// ordered scan remains authoritative either way.
    fn degrade(&mut self) {
        if self.key.fields.len() > MAX_INDEX_KEY_FIELDS {
            self.index = Index::Scan;
            return;
        }
        let mut common: Box<[u64]> = vec![u64::MAX; self.key.fields.len()].into();
        for &slot in &self.order {
            TssIndex::narrow(&mut common, &self.stored(slot).entry);
        }
        self.tss_rebuild(common);
    }

    /// Refile every entry in `order` under `common`, which must be a
    /// subset of every live entry's effective mask.
    fn tss_rebuild(&mut self, common: Box<[u64]>) {
        let mut tss = TssIndex { common, partitions: FxHashMap::default() };
        for &slot in &self.order {
            Self::tss_insert(&mut tss, &self.slots, slot);
        }
        self.index = Index::Tss(tss);
    }

    /// The empty index a fresh table of this key spec starts with.
    fn fresh_index(key: &KeySpec) -> Index {
        if key.fields.len() == 1 && key.fields[0].1 == MatchKind::Lpm {
            Index::Lpm(LpmIndex::default())
        } else if key.fields.len() > MAX_INDEX_KEY_FIELDS {
            Index::Scan
        } else if key.fields.iter().all(|(_, k)| *k == MatchKind::Exact) {
            Index::Exact(FxHashMap::default())
        } else {
            Index::Tss(TssIndex {
                common: vec![u64::MAX; key.fields.len()].into(),
                partitions: FxHashMap::default(),
            })
        }
    }

    /// Exact-index key of a conforming entry, or `None` if the entry does
    /// not consist purely of `Exact` match values.
    fn exact_key_of(entry: &TableEntry) -> Option<Box<[u64]>> {
        entry
            .matches
            .iter()
            .map(|m| match *m {
                MatchValue::Exact(v) => Some(v),
                _ => None,
            })
            .collect()
    }

    /// File a stored entry in its partition, building the partition's
    /// tuple-space groups when it outgrows the scan cutoff.
    fn tss_insert(tss: &mut TssIndex, slots: &[Option<StoredEntry>], slot: u32) {
        let live = |s: u32| slots[s as usize].as_ref().expect("live slot");
        let rank = live(slot).rank;
        let key = tss.partition_key(live(slot).entry.matches.iter().map(value_word));
        let part = tss.partitions.entry(key).or_default();
        let pos = part.members.partition_point(|&s| live(s).rank < rank);
        part.members.insert(pos, slot);
        let grouped = match part.members.len() {
            n if n <= TSS_SCAN_CUTOFF => &[][..],
            n if n == TSS_SCAN_CUTOFF + 1 => &part.members[..],
            _ => std::slice::from_ref(&slot),
        };
        for &s in grouped {
            Self::group_insert(&mut part.groups, &live(s).entry, live(s).rank, s);
        }
    }

    /// Unfile a just-vacated entry from its partition, dropping the
    /// partition when it empties and its groups when it shrinks back to
    /// the scan cutoff.
    fn tss_remove(tss: &mut TssIndex, slots: &[Option<StoredEntry>], stored: &StoredEntry, slot: u32) {
        let rank = stored.rank;
        let key = tss.partition_key(stored.entry.matches.iter().map(value_word));
        let Some(part) = tss.partitions.get_mut(&key) else {
            return;
        };
        // The only vacated member is the one being removed.
        let Ok(pos) = part.members.binary_search_by(|&s| {
            slots[s as usize].as_ref().map_or(std::cmp::Ordering::Equal, |e| e.rank.cmp(&rank))
        }) else {
            return;
        };
        part.members.remove(pos);
        match part.members.len() {
            0 => {
                tss.partitions.remove(&key);
            }
            n if n > TSS_SCAN_CUTOFF => Self::group_remove(&mut part.groups, stored, slot),
            _ => part.groups = Vec::new(),
        }
    }

    /// The group holding entries of `entry`'s effective mask tuple, if any.
    /// The tuple is derived once, not once per group compared.
    fn group_of(groups: &[TssGroup], entry: &TableEntry) -> Option<usize> {
        let mut id = [EffMask::Range; MAX_INDEX_KEY_FIELDS];
        for (em, mv) in id.iter_mut().zip(&entry.matches) {
            *em = eff_mask(mv);
        }
        let id = &id[..entry.matches.len()];
        groups.iter().position(|g| *g.id == *id)
    }

    /// The masked key an entry hashes to within a tuple-space group with
    /// `key_masks` (its first `entry.matches.len()` words), built on the
    /// stack: a bucket's boxed key is allocated only when the bucket is
    /// created.
    fn tss_key(entry: &TableEntry, key_masks: &[u64]) -> [u64; MAX_INDEX_KEY_FIELDS] {
        let mut key = [0u64; MAX_INDEX_KEY_FIELDS];
        for ((k, mv), m) in key.iter_mut().zip(&entry.matches).zip(key_masks) {
            *k = value_word(mv) & m;
        }
        key
    }

    /// Hook an entry into a partition's tuple-space groups, creating its
    /// mask group on first sight and keeping the group list sorted by best
    /// rank. Never fails: every match-value shape has an effective mask.
    fn group_insert(groups: &mut Vec<TssGroup>, entry: &TableEntry, rank: Rank, slot: u32) {
        let gi = match Self::group_of(groups, entry) {
            Some(gi) => gi,
            None => {
                let id: Box<[EffMask]> = entry.matches.iter().map(eff_mask).collect();
                let key_masks: Box<[u64]> = entry.matches.iter().map(mask_word).collect();
                let range_fields = id.iter().filter(|em| matches!(em, EffMask::Range)).count();
                let single_range = (range_fields == 1)
                    .then(|| id.iter().position(|em| matches!(em, EffMask::Range)))
                    .flatten();
                // Pushed with a sentinel worst rank; the reposition below
                // sorts it into place before this call returns.
                groups.push(TssGroup {
                    id,
                    key_masks,
                    single_range,
                    range_fields,
                    best_rank: (i64::MAX, i64::MAX, u64::MAX),
                    buckets: FxHashMap::default(),
                    len: 0,
                });
                groups.len() - 1
            }
        };
        let g = &mut groups[gi];
        let key = Self::tss_key(entry, &g.key_masks);
        let key = &key[..entry.matches.len()];
        let single_range = g.single_range;
        let file = |bucket: &mut TssBucket| {
            let pos = match bucket.members.binary_search(&(rank, slot)) {
                Ok(p) | Err(p) => p,
            };
            bucket.members.insert(pos, (rank, slot));
            if let Some(rf) = single_range {
                let MatchValue::Range { lo, hi } = entry.matches[rf] else {
                    unreachable!("range effective mask implies a Range value");
                };
                let pos = bucket.intervals.partition_point(|it| (it.lo, it.rank) < (lo, rank));
                bucket.intervals.insert(pos, Interval { lo, hi, max_hi: 0, rank, slot });
                fix_max_hi(&mut bucket.intervals);
            }
        };
        // One probe for a bucket that exists, two for one that does not.
        match g.buckets.get_mut(key) {
            Some(bucket) => file(bucket),
            None => {
                let mut bucket = TssBucket::default();
                file(&mut bucket);
                g.buckets.insert(key.into(), bucket);
            }
        }
        g.len += 1;
        if rank < g.best_rank {
            let mut g = groups.remove(gi);
            g.best_rank = rank;
            let pos = groups.partition_point(|o| o.best_rank < rank);
            groups.insert(pos, g);
        }
    }

    /// Unhook a removed entry from a partition's tuple-space groups,
    /// dropping empty buckets/groups and re-sorting the group list if the
    /// group's best member left.
    fn group_remove(groups: &mut Vec<TssGroup>, stored: &StoredEntry, slot: u32) {
        let entry = &stored.entry;
        let rank = stored.rank;
        let Some(gi) = Self::group_of(groups, entry) else {
            return;
        };
        let g = &mut groups[gi];
        let key = Self::tss_key(entry, &g.key_masks);
        let key = &key[..entry.matches.len()];
        let Some(bucket) = g.buckets.get_mut(key) else {
            return;
        };
        bucket.members.retain(|&(_, s)| s != slot);
        if g.single_range.is_some() {
            bucket.intervals.retain(|it| it.slot != slot);
            fix_max_hi(&mut bucket.intervals);
        }
        if bucket.members.is_empty() {
            g.buckets.remove(key);
        }
        g.len -= 1;
        if g.len == 0 {
            groups.remove(gi);
            return;
        }
        if rank == g.best_rank {
            let mut g = groups.remove(gi);
            g.best_rank = g
                .buckets
                .values()
                .map(|b| b.members[0].0)
                .min()
                .expect("non-empty group has a best member");
            let pos = groups.partition_point(|o| o.best_rank < g.best_rank);
            groups.insert(pos, g);
        }
    }

    /// Hook an already-stored entry into the index. Returns `false` if the
    /// entry cannot be indexed (the caller degrades).
    fn index_insert(&mut self, slot: u32) -> bool {
        let stored = self.slots[slot as usize].as_ref().expect("live slot");
        match &mut self.index {
            Index::Scan => true,
            Index::Tss(tss) => {
                if TssIndex::narrow(&mut tss.common, &stored.entry) && !tss.partitions.is_empty() {
                    // `order` already holds the new entry.
                    let common = std::mem::take(&mut tss.common);
                    self.tss_rebuild(common);
                } else {
                    Self::tss_insert(tss, &self.slots, slot);
                }
                true
            }
            Index::Exact(map) => {
                let Some(key) = Self::exact_key_of(&stored.entry) else {
                    return false;
                };
                let rank = stored.rank;
                match map.entry(key) {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(slot);
                    }
                    std::collections::hash_map::Entry::Occupied(mut o) => {
                        // Duplicate key tuple: keep the first-match winner.
                        let cur = *o.get();
                        if rank < self.slots[cur as usize].as_ref().expect("live slot").rank {
                            o.insert(slot);
                        }
                    }
                }
                true
            }
            Index::Lpm(lpm) => {
                let MatchValue::Lpm { value, prefix_len, bits } = stored.entry.matches[0] else {
                    return false;
                };
                if *lpm.bits.get_or_insert(bits) != bits {
                    return false;
                }
                if *lpm.priority.get_or_insert(stored.entry.priority) != stored.entry.priority {
                    return false;
                }
                let pos = match lpm
                    .buckets
                    .binary_search_by(|(len, _)| prefix_len.cmp(len))
                {
                    Ok(p) => p,
                    Err(p) => {
                        lpm.buckets.insert(p, (prefix_len, FxHashMap::default()));
                        p
                    }
                };
                // `seq` is monotonic, so among same-key duplicates the
                // already-stored entry is the earlier one and keeps winning.
                lpm.buckets[pos]
                    .1
                    .entry(lpm_bucket_key(value, prefix_len, bits))
                    .or_insert(slot);
                true
            }
        }
    }

    /// Unhook a just-removed entry from the index, promoting the next
    /// first-match winner for its key if one exists.
    fn index_remove(&mut self, slot: u32, stored: &StoredEntry) {
        let entry = &stored.entry;
        match &self.index {
            Index::Scan => {}
            Index::Tss(_) => {
                let Index::Tss(tss) = &mut self.index else { unreachable!() };
                Self::tss_remove(tss, &self.slots, stored, slot);
                if self.order.is_empty() {
                    tss.common.fill(u64::MAX);
                }
            }
            Index::Exact(map) => {
                let Some(key) = Self::exact_key_of(entry) else {
                    return;
                };
                if map.get(&key) != Some(&slot) {
                    return;
                }
                // `order` is rank-sorted, so the first remaining entry with
                // this key tuple is the new winner.
                let next = self.order.iter().copied().find(|&s| {
                    Self::exact_key_of(&self.stored(s).entry).as_deref() == Some(&key[..])
                });
                let Index::Exact(map) = &mut self.index else { unreachable!() };
                match next {
                    Some(s) => {
                        map.insert(key, s);
                    }
                    None => {
                        map.remove(&key);
                    }
                }
            }
            Index::Lpm(lpm) => {
                let MatchValue::Lpm { value, prefix_len, bits } = entry.matches[0] else {
                    return;
                };
                let key = lpm_bucket_key(value, prefix_len, bits);
                let Some(pos) = lpm.buckets.iter().position(|(len, _)| *len == prefix_len) else {
                    return;
                };
                if lpm.buckets[pos].1.get(&key) != Some(&slot) {
                    return;
                }
                let next = self.order.iter().copied().find(|&s| {
                    matches!(
                        self.stored(s).entry.matches[0],
                        MatchValue::Lpm { value: v, prefix_len: p, bits: b }
                            if p == prefix_len && b == bits
                                && lpm_bucket_key(v, p, b) == key
                    )
                });
                let Index::Lpm(lpm) = &mut self.index else { unreachable!() };
                match next {
                    Some(s) => {
                        lpm.buckets[pos].1.insert(key, s);
                    }
                    None => {
                        lpm.buckets[pos].1.remove(&key);
                        if lpm.buckets[pos].1.is_empty() {
                            lpm.buckets.remove(pos);
                        }
                    }
                }
                if self.order.is_empty() {
                    // An emptied table may be refilled with a different
                    // width or priority; start afresh.
                    let Index::Lpm(lpm) = &mut self.index else { unreachable!() };
                    lpm.bits = None;
                    lpm.priority = None;
                }
            }
        }
    }

    /// Insert an entry atomically. `handle` must be globally unique (the
    /// switch's control plane allocates them).
    pub fn insert(&mut self, handle: EntryHandle, entry: TableEntry) -> SimResult<()> {
        self.admit(&entry)?;
        self.file(handle, entry);
        Ok(())
    }

    /// Whether [`Table::insert`] would take `entry`: the table has room,
    /// the key has the table's arity and the action exists.
    pub(crate) fn admit(&self, entry: &TableEntry) -> SimResult<()> {
        if self.order.len() >= self.capacity {
            return Err(SimError::TableFull { table: self.name.clone(), capacity: self.capacity });
        }
        if entry.matches.len() != self.key.fields.len() {
            return Err(SimError::KeyMismatch {
                table: self.name.clone(),
                expected: self.key.fields.len(),
                got: entry.matches.len(),
            });
        }
        if entry.action >= self.actions.len() {
            return Err(SimError::NoSuchAction { table: self.name.clone(), action: entry.action });
        }
        Ok(())
    }

    /// Store an admitted entry and file it in the index.
    pub(crate) fn file(&mut self, handle: EntryHandle, entry: TableEntry) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let stored = StoredEntry::new(handle, seq, entry);
        let rank = stored.rank;
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(stored);
                s
            }
            None => {
                self.slots.push(Some(stored));
                u32::try_from(self.slots.len() - 1).expect("slot id fits u32")
            }
        };
        // Sorted insertion into the rank-ordered `order`. The entries of one
        // program arrive in a row, and those of one priority rank side by
        // side (each has the newest `seq`): the place right after the
        // previous insert is tried first, then a binary search, O(log n).
        let at = |i: usize| self.stored(self.order[i]).rank;
        let hint = self.order_hint;
        let pos = if hint <= self.order.len()
            && (hint == 0 || at(hint - 1) < rank)
            && (hint == self.order.len() || rank < at(hint))
        {
            hint
        } else {
            self.order.binary_search_by(|&s| self.stored(s).rank.cmp(&rank)).unwrap_err()
        };
        self.order.insert(pos, slot);
        self.order_hint = pos + 1;
        self.by_handle.insert(handle, slot);
        if !self.index_insert(slot) {
            self.degrade();
        }
    }

    /// Delete an entry atomically.
    pub fn delete(&mut self, handle: EntryHandle) -> SimResult<TableEntry> {
        let Some(slot) = self.by_handle.remove(&handle) else {
            return Err(SimError::NoSuchEntry(handle.0));
        };
        // Ranks are unique, so the rank-sorted order finds the slot exactly.
        let rank = self.stored(slot).rank;
        let pos = self
            .order
            .binary_search_by(|&s| self.stored(s).rank.cmp(&rank))
            .expect("slot in order");
        self.order.remove(pos);
        let stored = self.slots[slot as usize].take().expect("live slot");
        self.index_remove(slot, &stored);
        self.free_slots.push(slot);
        Ok(stored.entry)
    }

    /// Contains.
    pub fn contains(&self, handle: EntryHandle) -> bool {
        self.by_handle.contains_key(&handle)
    }

    /// Drop every entry at once (a device reset, not per-entry deletes).
    /// The index is rebuilt empty from the key spec, recovering from any
    /// degradation the wiped entries caused.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.free_slots.clear();
        self.order.clear();
        self.by_handle.clear();
        self.index = Self::fresh_index(&self.key);
    }

    /// The slot the indexed or scanned lookup selects, if any. Does not
    /// touch the hit/miss counters.
    fn find_slot(&self, phv: &Phv) -> Option<u32> {
        if self.indexed {
            match &self.index {
                Index::Exact(map) => {
                    if map.is_empty() {
                        return None;
                    }
                    let n = self.key.fields.len();
                    let mut probe = [0u64; MAX_INDEX_KEY_FIELDS];
                    for (i, (field, _)) in self.key.fields.iter().enumerate() {
                        probe[i] = phv.get(*field);
                    }
                    return map.get(&probe[..n]).copied();
                }
                Index::Lpm(lpm) => {
                    let v = phv.get(self.key.fields[0].0);
                    let bits = lpm.bits.unwrap_or(0);
                    return lpm
                        .buckets
                        .iter()
                        .find_map(|(len, map)| map.get(&lpm_bucket_key(v, *len, bits)).copied());
                }
                Index::Tss(tss) => {
                    // Tiny tables fall through to the short scan — see
                    // [`TSS_SCAN_CUTOFF`].
                    if self.order.len() > TSS_SCAN_CUTOFF {
                        return self.tss_find(tss, phv);
                    }
                }
                Index::Scan => {}
            }
        }
        self.first_match(&self.order, phv)
    }

    /// The first of the rank-ordered `slots` whose every field matches.
    fn first_match(&self, slots: &[u32], phv: &Phv) -> Option<u32> {
        slots.iter().copied().find(|&slot| {
            let e = &self.stored(slot).entry;
            self.key.fields.iter().zip(&e.matches).all(|((field, _), mv)| mv.matches(phv.get(*field)))
        })
    }

    /// Partition probe: hash the key under the common mask, then scan the
    /// partition's few members — or, past the scan cutoff, run tuple-space
    /// search over them: groups in best-rank order, early exit once the
    /// current best match outranks every remaining group's best possible
    /// member, masked-key hash within each group, interval binary search
    /// where a single range field participates.
    fn tss_find(&self, tss: &TssIndex, phv: &Phv) -> Option<u32> {
        let n = self.key.fields.len();
        let mut vals = [0u64; MAX_INDEX_KEY_FIELDS];
        for (i, (field, _)) in self.key.fields.iter().enumerate() {
            vals[i] = phv.get(*field);
        }
        let part = tss.partitions.get(&tss.partition_key(vals[..n].iter().copied()))?;
        if part.groups.is_empty() {
            return self.first_match(&part.members, phv);
        }
        let mut probe = [0u64; MAX_INDEX_KEY_FIELDS];
        let mut best: Option<(Rank, u32)> = None;
        for g in &part.groups {
            if let Some((rank, _)) = best {
                if rank < g.best_rank {
                    // Every remaining group's best member ranks worse.
                    break;
                }
            }
            for i in 0..n {
                probe[i] = vals[i] & g.key_masks[i];
            }
            let Some(bucket) = g.buckets.get(&probe[..n]) else {
                continue;
            };
            let found = if let Some(rf) = g.single_range {
                Self::probe_intervals(bucket, vals[rf])
            } else if g.range_fields == 0 {
                // Masked equality decided the match completely; members
                // are rank-sorted and buckets are never empty.
                Some(bucket.members[0])
            } else {
                // Two-plus range fields: rank-ordered bucket scan checking
                // the fields the masked key ignores.
                bucket.members.iter().copied().find(|&(_, slot)| {
                    let e = &self.stored(slot).entry;
                    g.id.iter().zip(&e.matches).enumerate().all(|(i, (em, mv))| {
                        !matches!(em, EffMask::Range) || mv.matches(vals[i])
                    })
                })
            };
            if let Some((rank, slot)) = found {
                if best.is_none() || rank < best.expect("checked").0 {
                    best = Some((rank, slot));
                }
            }
        }
        best.map(|(_, slot)| slot)
    }

    /// Best-ranked interval containing `v`: binary search to the last
    /// interval with `lo <= v`, then walk back while the prefix maxima
    /// say an enclosing interval can still exist.
    fn probe_intervals(bucket: &TssBucket, v: u64) -> Option<(Rank, u32)> {
        let end = bucket.intervals.partition_point(|it| it.lo <= v);
        let mut best: Option<(Rank, u32)> = None;
        for it in bucket.intervals[..end].iter().rev() {
            if it.max_hi < v {
                break;
            }
            if it.hi >= v && (best.is_none() || it.rank < best.expect("checked").0) {
                best = Some((it.rank, it.slot));
            }
        }
        best
    }

    /// Look up the PHV, returning plain indices into the table instead of
    /// borrows — the allocation-free dispatch interface. Bumps hit/miss
    /// counters exactly as [`Table::lookup`] does.
    pub(crate) fn lookup_slot(&mut self, phv: &Phv) -> Option<SlotLookup> {
        // A table with no entry misses whatever the key: answer before any
        // index dispatch or key read. Emptiness is read from the live entry
        // list, so no control operation has anything to invalidate.
        let found = if self.order.is_empty() { None } else { self.find_slot(phv) };
        match found {
            Some(slot) => {
                self.hits += 1;
                Some(SlotLookup {
                    action: self.stored(slot).entry.action,
                    src: DataSrc::Entry(slot),
                    hit: true,
                })
            }
            None => {
                self.misses += 1;
                self.default_action
                    .as_ref()
                    .map(|(a, _)| SlotLookup { action: *a, src: DataSrc::Default, hit: false })
            }
        }
    }

    /// The action data a [`SlotLookup`] refers to.
    pub(crate) fn data_of(&self, src: DataSrc) -> &[u64] {
        match src {
            DataSrc::Entry(slot) => &self.stored(slot).entry.data,
            DataSrc::Default => self
                .default_action
                .as_ref()
                .map(|(_, d)| d.as_slice())
                .unwrap_or(&[]),
        }
    }

    /// Look up the PHV against this table, returning the matched (or
    /// default) action. Also bumps hit/miss counters.
    pub fn lookup(&mut self, phv: &Phv) -> Option<LookupResult<'_>> {
        let r = self.lookup_slot(phv)?;
        Some(LookupResult {
            action: &self.actions[r.action],
            data: self.data_of(r.src),
            hit: r.hit,
        })
    }

    /// Iterate entries in first-match precedence order (for resource
    /// accounting and debugging).
    pub fn iter_entries(&self) -> impl Iterator<Item = (EntryHandle, &TableEntry)> {
        self.order.iter().map(|&s| {
            let e = self.stored(s);
            (e.handle, &e.entry)
        })
    }

    /// Total key width in bits, used for TCAM/SRAM block accounting.
    pub(crate) fn key_bits(&self, field_table: &crate::phv::FieldTable) -> usize {
        self.key.fields.iter().map(|(f, _)| usize::from(field_table.spec(*f).bits)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionDef;
    use crate::phv::FieldTable;

    fn setup() -> (FieldTable, FieldId, FieldId) {
        let mut t = FieldTable::new();
        let a = t.register("meta.a", 32).unwrap();
        let b = t.register("meta.b", 16).unwrap();
        (t, a, b)
    }

    fn noop_actions(n: usize) -> Vec<ActionDef> {
        (0..n).map(|i| ActionDef::noop(format!("act{i}"))).collect()
    }

    #[test]
    fn exact_match() {
        let (ft, a, b) = setup();
        let key = KeySpec::new(vec![(a, MatchKind::Exact), (b, MatchKind::Exact)]);
        let mut tbl = Table::new("t", key, noop_actions(1), 8);
        assert!(tbl.is_indexed());
        tbl.insert(
            EntryHandle(1),
            TableEntry { matches: vec![MatchValue::Exact(5), MatchValue::Exact(7)], priority: 0, action: 0, data: vec![] },
        )
        .unwrap();
        let mut phv = Phv::new(&ft);
        phv.set(&ft, a, 5);
        phv.set(&ft, b, 7);
        assert!(tbl.lookup(&phv).is_some());
        phv.set(&ft, b, 8);
        assert!(tbl.lookup(&phv).is_none());
        assert_eq!(tbl.hits, 1);
        assert_eq!(tbl.misses, 1);
    }

    #[test]
    fn ternary_priority_order() {
        let (ft, a, _) = setup();
        let key = KeySpec::new(vec![(a, MatchKind::Ternary)]);
        let mut tbl = Table::new("t", key, noop_actions(2), 8);
        assert!(tbl.is_indexed());
        assert_eq!(tbl.index_mode(), "tss");
        // Low-priority catch-all inserted first.
        tbl.insert(
            EntryHandle(1),
            TableEntry { matches: vec![MatchValue::ANY], priority: 0, action: 0, data: vec![] },
        )
        .unwrap();
        tbl.insert(
            EntryHandle(2),
            TableEntry {
                matches: vec![MatchValue::Ternary { value: 0x10, mask: 0xf0 }],
                priority: 10,
                action: 1,
                data: vec![],
            },
        )
        .unwrap();
        let mut phv = Phv::new(&ft);
        phv.set(&ft, a, 0x15);
        let r = tbl.lookup(&phv).unwrap();
        assert_eq!(r.action.name, "act1");
        phv.set(&ft, a, 0x25);
        let r = tbl.lookup(&phv).unwrap();
        assert_eq!(r.action.name, "act0");
    }

    #[test]
    fn tie_broken_by_insertion_order() {
        let (ft, a, _) = setup();
        let key = KeySpec::new(vec![(a, MatchKind::Ternary)]);
        let mut tbl = Table::new("t", key, noop_actions(2), 8);
        tbl.insert(
            EntryHandle(1),
            TableEntry { matches: vec![MatchValue::ANY], priority: 5, action: 0, data: vec![] },
        )
        .unwrap();
        tbl.insert(
            EntryHandle(2),
            TableEntry { matches: vec![MatchValue::ANY], priority: 5, action: 1, data: vec![] },
        )
        .unwrap();
        let mut phv = Phv::new(&ft);
        phv.set(&ft, a, 1);
        assert_eq!(tbl.lookup(&phv).unwrap().action.name, "act0");
    }

    #[test]
    fn lpm_longest_prefix_wins() {
        let (ft, a, _) = setup();
        let key = KeySpec::new(vec![(a, MatchKind::Lpm)]);
        let mut tbl = Table::new("t", key, noop_actions(2), 8);
        assert!(tbl.is_indexed());
        tbl.insert(
            EntryHandle(1),
            TableEntry {
                matches: vec![MatchValue::Lpm { value: 0x0a000000, prefix_len: 8, bits: 32 }],
                priority: 0,
                action: 0,
                data: vec![],
            },
        )
        .unwrap();
        tbl.insert(
            EntryHandle(2),
            TableEntry {
                matches: vec![MatchValue::Lpm { value: 0x0a010000, prefix_len: 16, bits: 32 }],
                priority: 0,
                action: 1,
                data: vec![],
            },
        )
        .unwrap();
        let mut phv = Phv::new(&ft);
        phv.set(&ft, a, 0x0a010203);
        assert_eq!(tbl.lookup(&phv).unwrap().action.name, "act1");
        phv.set(&ft, a, 0x0a020203);
        assert_eq!(tbl.lookup(&phv).unwrap().action.name, "act0");
    }

    #[test]
    fn range_match() {
        let (ft, a, _) = setup();
        let key = KeySpec::new(vec![(a, MatchKind::Range)]);
        let mut tbl = Table::new("t", key, noop_actions(1), 8);
        tbl.insert(
            EntryHandle(1),
            TableEntry {
                matches: vec![MatchValue::Range { lo: 10, hi: 20 }],
                priority: 0,
                action: 0,
                data: vec![],
            },
        )
        .unwrap();
        let mut phv = Phv::new(&ft);
        for (v, hit) in [(9u64, false), (10, true), (20, true), (21, false)] {
            phv.set(&ft, a, v);
            assert_eq!(tbl.lookup(&phv).is_some(), hit, "value {v}");
        }
    }

    #[test]
    fn capacity_enforced() {
        let (_, a, _) = setup();
        let key = KeySpec::new(vec![(a, MatchKind::Exact)]);
        let mut tbl = Table::new("t", key, noop_actions(1), 2);
        for i in 0..2 {
            tbl.insert(
                EntryHandle(i),
                TableEntry { matches: vec![MatchValue::Exact(i)], priority: 0, action: 0, data: vec![] },
            )
            .unwrap();
        }
        let err = tbl.insert(
            EntryHandle(9),
            TableEntry { matches: vec![MatchValue::Exact(9)], priority: 0, action: 0, data: vec![] },
        );
        assert!(matches!(err, Err(SimError::TableFull { .. })));
    }

    #[test]
    fn delete_restores_capacity_and_misses() {
        let (ft, a, _) = setup();
        let key = KeySpec::new(vec![(a, MatchKind::Exact)]);
        let mut tbl = Table::new("t", key, noop_actions(1), 2);
        tbl.insert(
            EntryHandle(1),
            TableEntry { matches: vec![MatchValue::Exact(5)], priority: 0, action: 0, data: vec![] },
        )
        .unwrap();
        let mut phv = Phv::new(&ft);
        phv.set(&ft, a, 5);
        assert!(tbl.lookup(&phv).is_some());
        tbl.delete(EntryHandle(1)).unwrap();
        assert!(tbl.lookup(&phv).is_none());
        assert_eq!(tbl.len(), 0);
        assert!(matches!(tbl.delete(EntryHandle(1)), Err(SimError::NoSuchEntry(1))));
    }

    #[test]
    fn default_action_on_miss() {
        let (ft, a, _) = setup();
        let key = KeySpec::new(vec![(a, MatchKind::Exact)]);
        let mut tbl = Table::new("t", key, noop_actions(2), 2);
        tbl.set_default_action(1, vec![42]);
        let phv = Phv::new(&ft);
        let r = tbl.lookup(&phv).unwrap();
        assert!(!r.hit);
        assert_eq!(r.action.name, "act1");
        assert_eq!(r.data, &[42]);
    }

    #[test]
    fn key_arity_checked() {
        let (_, a, b) = setup();
        let key = KeySpec::new(vec![(a, MatchKind::Exact), (b, MatchKind::Exact)]);
        let mut tbl = Table::new("t", key, noop_actions(1), 2);
        let err = tbl.insert(
            EntryHandle(1),
            TableEntry { matches: vec![MatchValue::Exact(5)], priority: 0, action: 0, data: vec![] },
        );
        assert!(matches!(err, Err(SimError::KeyMismatch { .. })));
    }

    #[test]
    fn bad_action_id_rejected() {
        let (_, a, _) = setup();
        let key = KeySpec::new(vec![(a, MatchKind::Exact)]);
        let mut tbl = Table::new("t", key, noop_actions(1), 2);
        let err = tbl.insert(
            EntryHandle(1),
            TableEntry { matches: vec![MatchValue::Exact(5)], priority: 0, action: 7, data: vec![] },
        );
        assert!(matches!(err, Err(SimError::NoSuchAction { .. })));
    }

    #[test]
    fn exact_duplicate_key_first_match_semantics() {
        // Two entries with the same key tuple: higher priority wins; among
        // equal priorities the earlier insertion wins — with and without
        // the index.
        let (ft, a, _) = setup();
        let key = KeySpec::new(vec![(a, MatchKind::Exact)]);
        let mut tbl = Table::new("t", key, noop_actions(3), 8);
        tbl.insert(
            EntryHandle(1),
            TableEntry { matches: vec![MatchValue::Exact(5)], priority: 0, action: 0, data: vec![] },
        )
        .unwrap();
        tbl.insert(
            EntryHandle(2),
            TableEntry { matches: vec![MatchValue::Exact(5)], priority: 0, action: 1, data: vec![] },
        )
        .unwrap();
        tbl.insert(
            EntryHandle(3),
            TableEntry { matches: vec![MatchValue::Exact(5)], priority: 9, action: 2, data: vec![] },
        )
        .unwrap();
        let mut phv = Phv::new(&ft);
        phv.set(&ft, a, 5);
        assert_eq!(tbl.lookup(&phv).unwrap().action.name, "act2");
        // Deleting the winner promotes the next in precedence order.
        tbl.delete(EntryHandle(3)).unwrap();
        assert_eq!(tbl.lookup(&phv).unwrap().action.name, "act0");
        tbl.delete(EntryHandle(1)).unwrap();
        assert_eq!(tbl.lookup(&phv).unwrap().action.name, "act1");
        // Scan mode agrees at every step.
        tbl.set_indexed(false);
        assert_eq!(tbl.lookup(&phv).unwrap().action.name, "act1");
    }

    #[test]
    fn lpm_winner_promoted_on_delete() {
        let (ft, a, _) = setup();
        let key = KeySpec::new(vec![(a, MatchKind::Lpm)]);
        let mut tbl = Table::new("t", key, noop_actions(2), 8);
        let lpm16 = MatchValue::Lpm { value: 0x0a010000, prefix_len: 16, bits: 32 };
        tbl.insert(
            EntryHandle(1),
            TableEntry { matches: vec![lpm16], priority: 0, action: 0, data: vec![] },
        )
        .unwrap();
        tbl.insert(
            EntryHandle(2),
            TableEntry { matches: vec![lpm16], priority: 0, action: 1, data: vec![] },
        )
        .unwrap();
        let mut phv = Phv::new(&ft);
        phv.set(&ft, a, 0x0a010203);
        assert_eq!(tbl.lookup(&phv).unwrap().action.name, "act0");
        tbl.delete(EntryHandle(1)).unwrap();
        assert_eq!(tbl.lookup(&phv).unwrap().action.name, "act1");
        tbl.delete(EntryHandle(2)).unwrap();
        assert!(tbl.lookup(&phv).is_none());
    }

    #[test]
    fn mixed_priority_lpm_degrades_to_tss() {
        // Priority outranks prefix length in first-match order, so a
        // mixed-priority LPM table cannot probe longest-first: it rebuilds
        // as tuple-space search — and still answers correctly.
        let (ft, a, _) = setup();
        let key = KeySpec::new(vec![(a, MatchKind::Lpm)]);
        let mut tbl = Table::new("t", key, noop_actions(2), 8);
        tbl.insert(
            EntryHandle(1),
            TableEntry {
                matches: vec![MatchValue::Lpm { value: 0x0a000000, prefix_len: 8, bits: 32 }],
                priority: 10,
                action: 0,
                data: vec![],
            },
        )
        .unwrap();
        tbl.insert(
            EntryHandle(2),
            TableEntry {
                matches: vec![MatchValue::Lpm { value: 0x0a010000, prefix_len: 16, bits: 32 }],
                priority: 0,
                action: 1,
                data: vec![],
            },
        )
        .unwrap();
        assert!(tbl.is_indexed());
        assert_eq!(tbl.index_mode(), "tss");
        // Both prefixes share their top byte: one partition, too small for
        // mask groups.
        assert_eq!((tbl.tss_partitions(), tbl.tss_max_partition(), tbl.tss_groups()), (1, 2, 0));
        let mut phv = Phv::new(&ft);
        phv.set(&ft, a, 0x0a010203);
        // Priority 10 /8 beats priority 0 /16.
        assert_eq!(tbl.lookup(&phv).unwrap().action.name, "act0");
    }

    #[test]
    fn nonconforming_entry_degrades_exact_index() {
        // A ternary match value slipped into an exact-key table: the exact
        // index cannot represent it, so the table rebuilds as tuple-space
        // search and keeps answering correctly.
        let (ft, a, _) = setup();
        let key = KeySpec::new(vec![(a, MatchKind::Exact)]);
        let mut tbl = Table::new("t", key, noop_actions(2), 8);
        tbl.insert(
            EntryHandle(1),
            TableEntry { matches: vec![MatchValue::Exact(5)], priority: 0, action: 0, data: vec![] },
        )
        .unwrap();
        tbl.insert(
            EntryHandle(2),
            TableEntry {
                matches: vec![MatchValue::Ternary { value: 0, mask: 0 }],
                priority: -1,
                action: 1,
                data: vec![],
            },
        )
        .unwrap();
        assert!(tbl.is_indexed());
        assert_eq!(tbl.index_mode(), "tss");
        let mut phv = Phv::new(&ft);
        phv.set(&ft, a, 5);
        assert_eq!(tbl.lookup(&phv).unwrap().action.name, "act0");
        phv.set(&ft, a, 6);
        assert_eq!(tbl.lookup(&phv).unwrap().action.name, "act1");
    }

    #[test]
    fn scan_and_index_agree_after_churn() {
        let (ft, a, b) = setup();
        let key = KeySpec::new(vec![(a, MatchKind::Exact), (b, MatchKind::Exact)]);
        let mut tbl = Table::new("t", key, noop_actions(1), 64);
        for i in 0..32u64 {
            tbl.insert(
                EntryHandle(i),
                TableEntry {
                    matches: vec![MatchValue::Exact(i % 8), MatchValue::Exact(i / 8)],
                    priority: (i % 3) as i32,
                    action: 0,
                    data: vec![i],
                },
            )
            .unwrap();
        }
        for i in (0..32u64).step_by(3) {
            tbl.delete(EntryHandle(i)).unwrap();
        }
        let mut phv = Phv::new(&ft);
        for va in 0..8u64 {
            for vb in 0..4u64 {
                phv.set(&ft, a, va);
                phv.set(&ft, b, vb);
                let indexed = tbl.lookup(&phv).map(|r| r.data.to_vec());
                tbl.set_indexed(false);
                let scanned = tbl.lookup(&phv).map(|r| r.data.to_vec());
                tbl.set_indexed(true);
                assert_eq!(indexed, scanned, "probe ({va},{vb})");
            }
        }
    }

    /// Look up `phv` indexed and scanned and assert both agree; returns
    /// the matched entry data.
    fn both_ways(tbl: &mut Table, phv: &Phv, what: &str) -> Option<Vec<u64>> {
        let indexed = tbl.lookup(phv).map(|r| r.data.to_vec());
        tbl.set_indexed(false);
        let scanned = tbl.lookup(phv).map(|r| r.data.to_vec());
        tbl.set_indexed(true);
        assert_eq!(indexed, scanned, "{what}");
        indexed
    }

    #[test]
    fn tss_matches_scan_across_mask_groups() {
        let (ft, a, _) = setup();
        let key = KeySpec::new(vec![(a, MatchKind::Ternary)]);
        let mut tbl = Table::new("t", key, noop_actions(4), 64);
        // Four mask groups, six entries each — comfortably past the scan
        // cutoff, so lookups really take the tuple-space probe. Values
        // overlap across groups to exercise priority resolution.
        let masks = [0xffff_ff00u64, 0xffff_0000, 0xff00_0000, 0xffff_fff0];
        let shifts = [8u32, 16, 24, 4];
        for g in 0..4usize {
            for i in 0..6u64 {
                tbl.insert(
                    EntryHandle(g as u64 * 16 + i),
                    TableEntry {
                        matches: vec![MatchValue::Ternary { value: i << shifts[g], mask: masks[g] }],
                        priority: g as i32 * 2 + (i % 2) as i32,
                        action: g,
                        data: vec![g as u64, i],
                    },
                )
                .unwrap();
            }
        }
        assert_eq!(tbl.index_mode(), "tss");
        assert_eq!(tbl.tss_groups(), 4);
        let mut phv = Phv::new(&ft);
        for p in 0..200u64 {
            let v = p.wrapping_mul(0x9e37_79b9) & 0xffff_ffff;
            phv.set(&ft, a, v);
            both_ways(&mut tbl, &phv, &format!("probe {v:#x}"));
        }
        // Every entry's own value, with noise in unmasked low bits.
        for g in 0..4usize {
            for i in 0..6u64 {
                let v = (i << shifts[g]) | (masks[g] ^ u64::MAX) & 0x5;
                phv.set(&ft, a, v);
                assert!(both_ways(&mut tbl, &phv, &format!("group {g} entry {i}")).is_some());
            }
        }
    }

    #[test]
    fn tss_single_range_field_uses_interval_probe() {
        let (ft, a, b) = setup();
        let key = KeySpec::new(vec![(a, MatchKind::Ternary), (b, MatchKind::Range)]);
        let mut tbl = Table::new("t", key, noop_actions(1), 64);
        // One mask group (shared ternary mask), overlapping port ranges —
        // the bucket keeps a lo-sorted interval list probed by binary
        // search.
        for i in 0..12u64 {
            tbl.insert(
                EntryHandle(i),
                TableEntry {
                    matches: vec![
                        MatchValue::Ternary { value: 0x10, mask: 0xff },
                        MatchValue::Range { lo: i * 50, hi: i * 50 + 120 },
                    ],
                    priority: (i % 3) as i32,
                    action: 0,
                    data: vec![i],
                },
            )
            .unwrap();
        }
        assert_eq!(tbl.tss_groups(), 1);
        let mut phv = Phv::new(&ft);
        phv.set(&ft, a, 0x3210); // 0x10 under the 0xff mask
        for v in (0..800u64).step_by(7) {
            phv.set(&ft, b, v);
            both_ways(&mut tbl, &phv, &format!("port {v}"));
        }
        // A non-matching ternary part misses regardless of the range.
        phv.set(&ft, a, 0x11);
        phv.set(&ft, b, 60);
        assert!(both_ways(&mut tbl, &phv, "wrong ternary part").is_none());
    }

    #[test]
    fn tss_delete_and_reinsert_keeps_first_match_order() {
        let (ft, a, _) = setup();
        let key = KeySpec::new(vec![(a, MatchKind::Ternary)]);
        let mut tbl = Table::new("t", key, noop_actions(3), 32);
        // Filler group keeps the table above the scan cutoff.
        for i in 0..9u64 {
            tbl.insert(
                EntryHandle(100 + i),
                TableEntry {
                    matches: vec![MatchValue::Ternary { value: (i + 1) << 16, mask: 0xffff_0000 }],
                    priority: 0,
                    action: 0,
                    data: vec![100 + i],
                },
            )
            .unwrap();
        }
        // Three entries sharing one masked key in a second group:
        // duplicate priorities tie-break on insertion order.
        let shadow = MatchValue::Ternary { value: 0xab00, mask: 0xff00 };
        for (h, pri, act) in [(1u64, 5, 0usize), (2, 5, 1), (3, 9, 2)] {
            tbl.insert(
                EntryHandle(h),
                TableEntry { matches: vec![shadow], priority: pri, action: act, data: vec![h] },
            )
            .unwrap();
        }
        assert_eq!(tbl.tss_groups(), 2);
        let mut phv = Phv::new(&ft);
        phv.set(&ft, a, 0xab12);
        assert_eq!(both_ways(&mut tbl, &phv, "initial"), Some(vec![3]));
        // Deleting the group's best member recomputes its probe order.
        tbl.delete(EntryHandle(3)).unwrap();
        assert_eq!(both_ways(&mut tbl, &phv, "after delete best"), Some(vec![1]));
        tbl.delete(EntryHandle(1)).unwrap();
        assert_eq!(both_ways(&mut tbl, &phv, "after delete tie winner"), Some(vec![2]));
        // Delete-then-reinsert inside the same mask group.
        tbl.insert(
            EntryHandle(3),
            TableEntry { matches: vec![shadow], priority: 9, action: 2, data: vec![3] },
        )
        .unwrap();
        assert_eq!(both_ways(&mut tbl, &phv, "after reinsert"), Some(vec![3]));
        assert_eq!(tbl.tss_groups(), 2);
    }

    /// An RPB-shaped table: `(prog id, branch id, register)`, all ternary;
    /// every entry pins the full program id, branch masks are hierarchical
    /// prefixes, the register is mostly don't-care.
    fn rpb_table(ft: &mut FieldTable) -> (Table, [FieldId; 3]) {
        let f = [
            ft.register("meta.prog", 16).unwrap(),
            ft.register("meta.branch", 16).unwrap(),
            ft.register("meta.reg", 32).unwrap(),
        ];
        let key = KeySpec::new(f.iter().map(|&id| (id, MatchKind::Ternary)).collect());
        (Table::new("rpb", key, noop_actions(1), 4096), f)
    }

    fn rpb_entry(prog: u64, i: u64) -> TableEntry {
        let branch_mask = [0u64, 0x8000, 0xc000, 0xe000][i as usize % 4];
        let reg = if i % 3 == 2 { MatchValue::Ternary { value: i, mask: 0xff } } else { MatchValue::ANY };
        TableEntry {
            matches: vec![
                MatchValue::Ternary { value: prog, mask: 0xffff },
                MatchValue::Ternary { value: (i << 13) & branch_mask, mask: branch_mask },
                reg,
            ],
            priority: (i % 2) as i32,
            action: 0,
            data: vec![prog, i],
        }
    }

    #[test]
    fn rpb_entries_partition_by_program_and_absent_ids_touch_nothing() {
        let mut ft = FieldTable::new();
        let (mut tbl, f) = rpb_table(&mut ft);
        for prog in 1..=40u64 {
            for i in 0..3 {
                tbl.insert(EntryHandle(prog * 100 + i), rpb_entry(prog, i)).unwrap();
            }
        }
        // One partition per program id, none large enough for mask groups.
        assert_eq!(tbl.index_mode(), "tss");
        assert_eq!((tbl.tss_partitions(), tbl.tss_max_partition(), tbl.tss_groups()), (40, 3, 0));
        let Index::Tss(tss) = &tbl.index else { unreachable!() };
        assert_eq!(&tss.common[..], &[0xffff, 0, 0]);
        // A packet of a program with no entry here finds no partition: the
        // lookup ends at the hash probe without reading a single entry.
        assert!(!tss.partitions.contains_key(&tss.partition_key([999u64, 0, 0].into_iter())));
        let mut phv = Phv::new(&ft);
        phv.set(&ft, f[0], 999);
        assert!(both_ways(&mut tbl, &phv, "absent program").is_none());
        phv.set(&ft, f[0], 17);
        // Entry 1 (priority 1, branch prefix 0/1) outranks the branch-any entry 0.
        assert_eq!(both_ways(&mut tbl, &phv, "resident program"), Some(vec![17, 1]));

        // A program that outgrows the cutoff gets mask groups of its own,
        // and loses them again when it shrinks back.
        for i in 3..12 {
            tbl.insert(EntryHandle(1700 + i), rpb_entry(17, i)).unwrap();
        }
        assert_eq!((tbl.tss_partitions(), tbl.tss_max_partition()), (40, 12));
        assert!(tbl.tss_groups() > 1);
        phv.set(&ft, f[1], 0xe000);
        phv.set(&ft, f[2], 0x0b);
        both_ways(&mut tbl, &phv, "grouped partition");
        for i in 3..7 {
            tbl.delete(EntryHandle(1700 + i)).unwrap();
        }
        assert_eq!((tbl.tss_max_partition(), tbl.tss_groups()), (8, 0));
        both_ways(&mut tbl, &phv, "back under the cutoff");
    }

    #[test]
    fn common_mask_narrows_never_widens_and_resets_when_empty() {
        let mut ft = FieldTable::new();
        let (mut tbl, f) = rpb_table(&mut ft);
        for prog in 1..=12u64 {
            tbl.insert(EntryHandle(prog), rpb_entry(prog, 0)).unwrap();
        }
        assert_eq!(tbl.tss_partitions(), 12);
        // A catch-all constrains nothing: every entry refiles into one
        // partition, which then needs mask groups.
        let any = TableEntry { matches: vec![MatchValue::ANY; 3], priority: -1, action: 0, data: vec![0] };
        tbl.insert(EntryHandle(99), any).unwrap();
        assert_eq!((tbl.tss_partitions(), tbl.tss_max_partition(), tbl.tss_groups()), (1, 13, 2));
        let mut phv = Phv::new(&ft);
        phv.set(&ft, f[0], 5);
        assert_eq!(both_ways(&mut tbl, &phv, "specific beats catch-all"), Some(vec![5, 0]));
        phv.set(&ft, f[0], 500);
        assert_eq!(both_ways(&mut tbl, &phv, "catch-all"), Some(vec![0]));
        // Deleting it does not widen `common` again (still sound, merely
        // coarser) ...
        tbl.delete(EntryHandle(99)).unwrap();
        assert_eq!(tbl.tss_partitions(), 1);
        assert!(both_ways(&mut tbl, &phv, "catch-all gone").is_none());
        // ... emptying the table does.
        for prog in 1..=12u64 {
            tbl.delete(EntryHandle(prog)).unwrap();
        }
        assert_eq!(tbl.tss_partitions(), 0);
        for prog in 1..=12u64 {
            tbl.insert(EntryHandle(prog), rpb_entry(prog, 0)).unwrap();
        }
        assert_eq!(tbl.tss_partitions(), 12);
        phv.set(&ft, f[0], 5);
        assert_eq!(both_ways(&mut tbl, &phv, "refilled"), Some(vec![5, 0]));
    }
}
