//! The resource manager (§3.1): dynamic resource usage tracking.
//!
//! Maintains, per RPB: the free-memory partition list (the paper uses
//! bidirectional linked lists of free partitions supporting only
//! *continuous* allocation; an address-ordered vector of `(offset, len)`
//! spans is the idiomatic Rust equivalent with identical semantics), the
//! table-entry occupancy, and the set of *locked* regions — memory being
//! reset during program termination, unavailable for reallocation until
//! the reset completes (Figure 6 step ④).

use p4rp_compiler::alloc::AllocView;
use p4rp_dataplane::{RpbId, NUM_RPBS, RPB_MEM_SIZE, RPB_TABLE_SIZE};
use p4rp_dataplane::{INIT_TABLE_SIZE, RECIRC_TABLE_SIZE};

/// Memory/entry bookkeeping for the whole data plane.
#[derive(Debug, Clone)]
pub struct ResourceManager {
    /// Address-ordered free spans per RPB.
    free: Vec<Vec<(u32, u32)>>,
    /// Regions locked pending reset.
    locked: Vec<Vec<(u32, u32)>>,
    te_used: Vec<usize>,
    init_used: usize,
    recirc_used: usize,
    mem_size: u32,
    table_size: usize,
    /// The allocator's view, maintained incrementally: `te_free` updated
    /// O(1) on entry charges/refunds, `mem_free` re-derived only for the
    /// RPB whose span list changed. Deploys used to rebuild the whole
    /// 22-RPB snapshot from scratch on every allocation.
    view: AllocView,
}

impl Default for ResourceManager {
    fn default() -> Self {
        Self::new()
    }
}

impl ResourceManager {
    /// Construct with defaults appropriate to the type.
    pub(crate) fn new() -> ResourceManager {
        ResourceManager {
            free: vec![vec![(0, RPB_MEM_SIZE)]; NUM_RPBS],
            locked: vec![Vec::new(); NUM_RPBS],
            te_used: vec![0; NUM_RPBS],
            init_used: 0,
            recirc_used: 0,
            mem_size: RPB_MEM_SIZE,
            table_size: RPB_TABLE_SIZE,
            view: AllocView {
                te_free: vec![RPB_TABLE_SIZE; NUM_RPBS],
                mem_free: vec![vec![RPB_MEM_SIZE]; NUM_RPBS],
            },
        }
    }

    fn idx(rpb: RpbId) -> usize {
        usize::from(rpb.0) - 1
    }

    /// The allocator's view of current availability (incrementally
    /// maintained; clone it for a speculative snapshot).
    pub fn alloc_view(&self) -> &AllocView {
        &self.view
    }

    /// Re-derive the cached partition lengths of one RPB from its span
    /// list (reusing the existing buffer).
    fn sync_mem_view(&mut self, i: usize) {
        let dst = &mut self.view.mem_free[i];
        dst.clear();
        dst.extend(self.free[i].iter().map(|(_, len)| *len));
    }

    /// First-fit contiguous allocation of `size` buckets in `rpb`.
    pub(crate) fn grant_memory(&mut self, rpb: RpbId, size: u32) -> Option<u32> {
        let spans = &mut self.free[Self::idx(rpb)];
        let pos = spans.iter().position(|(_, len)| *len >= size)?;
        let (off, len) = spans[pos];
        if len == size {
            spans.remove(pos);
        } else {
            spans[pos] = (off + size, len - size);
        }
        self.sync_mem_view(Self::idx(rpb));
        Some(off)
    }

    /// Lock a region for reset: it is neither free nor usable.
    pub(crate) fn lock_memory(&mut self, rpb: RpbId, offset: u32, size: u32) {
        self.locked[Self::idx(rpb)].push((offset, size));
    }

    /// Reset finished: merge the region back into the free list.
    pub(crate) fn unlock_memory(&mut self, rpb: RpbId, offset: u32, size: u32) {
        let locked = &mut self.locked[Self::idx(rpb)];
        if let Some(pos) = locked.iter().position(|&(o, s)| o == offset && s == size) {
            locked.remove(pos);
        }
        let spans = &mut self.free[Self::idx(rpb)];
        let insert_at = spans.partition_point(|&(o, _)| o < offset);
        spans.insert(insert_at, (offset, size));
        // Coalesce neighbours.
        let mut i = insert_at.saturating_sub(1);
        while i + 1 < spans.len() {
            let (o0, l0) = spans[i];
            let (o1, l1) = spans[i + 1];
            if o0 + l0 == o1 {
                spans[i] = (o0, l0 + l1);
                spans.remove(i + 1);
            } else {
                i += 1;
            }
        }
        self.sync_mem_view(Self::idx(rpb));
    }

    /// Charge `n` table entries to an RPB; `false` if it would overflow.
    pub(crate) fn charge_entries(&mut self, rpb: RpbId, n: usize) -> bool {
        let i = Self::idx(rpb);
        if self.te_used[i] + n > self.table_size {
            return false;
        }
        self.te_used[i] += n;
        self.view.te_free[i] = self.table_size - self.te_used[i];
        true
    }

    /// Refund entries.
    pub(crate) fn refund_entries(&mut self, rpb: RpbId, n: usize) {
        let i = Self::idx(rpb);
        self.te_used[i] = self.te_used[i].saturating_sub(n);
        self.view.te_free[i] = self.table_size - self.te_used[i];
    }

    /// Charge initialization-table filter entries.
    pub(crate) fn charge_init(&mut self, n: usize) -> bool {
        if self.init_used + n > INIT_TABLE_SIZE {
            return false;
        }
        self.init_used += n;
        true
    }

    /// Refund init.
    pub(crate) fn refund_init(&mut self, n: usize) {
        self.init_used = self.init_used.saturating_sub(n);
    }

    /// Filter entries currently installed in the initialization table.
    pub fn init_entries_used(&self) -> usize {
        self.init_used
    }

    /// Filter entries currently installed in the recirculation block.
    pub(crate) fn recirc_entries_used(&self) -> usize {
        self.recirc_used
    }

    /// Charge recirc.
    pub(crate) fn charge_recirc(&mut self, n: usize) -> bool {
        if self.recirc_used + n > RECIRC_TABLE_SIZE {
            return false;
        }
        self.recirc_used += n;
        true
    }

    /// Refund recirc.
    pub(crate) fn refund_recirc(&mut self, n: usize) {
        self.recirc_used = self.recirc_used.saturating_sub(n);
    }

    // ---- utilization reporting (Figures 8, 18, 19) --------------------------

    /// Fraction of RPB memory allocated, over the whole data plane.
    pub fn memory_utilization(&self) -> f64 {
        let total = self.mem_size as f64 * NUM_RPBS as f64;
        let free: u64 = self
            .free
            .iter()
            .flat_map(|s| s.iter().map(|(_, l)| u64::from(*l)))
            .sum();
        let locked: u64 = self
            .locked
            .iter()
            .flat_map(|s| s.iter().map(|(_, l)| u64::from(*l)))
            .sum();
        1.0 - (free + locked) as f64 / total
    }

    /// Fraction of RPB table entries in use.
    pub fn entry_utilization(&self) -> f64 {
        let used: usize = self.te_used.iter().sum();
        used as f64 / (self.table_size * NUM_RPBS) as f64
    }

    /// Per-RPB memory utilization (Figure 18 heatmap rows).
    pub(crate) fn memory_utilization_per_rpb(&self) -> Vec<f64> {
        (0..NUM_RPBS)
            .map(|i| {
                let free: u64 = self.free[i].iter().map(|(_, l)| u64::from(*l)).sum();
                let locked: u64 = self.locked[i].iter().map(|(_, l)| u64::from(*l)).sum();
                1.0 - (free + locked) as f64 / f64::from(self.mem_size)
            })
            .collect()
    }

    /// Per-RPB entry utilization (Figure 19 heatmap rows).
    pub(crate) fn entry_utilization_per_rpb(&self) -> Vec<f64> {
        self.te_used.iter().map(|u| *u as f64 / self.table_size as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fit_and_coalescing() {
        let mut rm = ResourceManager::new();
        let r = RpbId(3);
        let a = rm.grant_memory(r, 1024).unwrap();
        let b = rm.grant_memory(r, 1024).unwrap();
        let c = rm.grant_memory(r, 2048).unwrap();
        assert_eq!((a, b, c), (0, 1024, 2048));
        // Free the middle region: fragmentation.
        rm.lock_memory(r, b, 1024);
        rm.unlock_memory(r, b, 1024);
        // A 2048 request skips the 1024 hole (first-fit, contiguous only).
        let d = rm.grant_memory(r, 2048).unwrap();
        assert_eq!(d, 4096);
        // The 1024 hole serves a 1024 request.
        assert_eq!(rm.grant_memory(r, 1024), Some(1024));
        // Free a and the hole: coalescing reconstructs [0, 2048).
        rm.unlock_memory(r, 0, 1024);
        rm.unlock_memory(r, 1024, 1024);
        assert_eq!(rm.grant_memory(r, 2048), Some(0));
    }

    #[test]
    fn locked_memory_not_reallocatable() {
        let mut rm = ResourceManager::new();
        let r = RpbId(1);
        // Exhaust the array.
        let off = rm.grant_memory(r, RPB_MEM_SIZE).unwrap();
        assert_eq!(rm.grant_memory(r, 1), None);
        rm.lock_memory(r, off, RPB_MEM_SIZE);
        // Still locked → still unavailable.
        assert_eq!(rm.grant_memory(r, 1), None);
        rm.unlock_memory(r, off, RPB_MEM_SIZE);
        assert_eq!(rm.grant_memory(r, 1), Some(0));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut rm = ResourceManager::new();
        let r = RpbId(7);
        assert!(rm.grant_memory(r, RPB_MEM_SIZE + 1).is_none());
        rm.grant_memory(r, RPB_MEM_SIZE).unwrap();
        assert!(rm.grant_memory(r, 1).is_none());
    }

    #[test]
    fn entry_accounting() {
        let mut rm = ResourceManager::new();
        let r = RpbId(5);
        assert!(rm.charge_entries(r, RPB_TABLE_SIZE));
        assert!(!rm.charge_entries(r, 1));
        rm.refund_entries(r, 10);
        assert!(rm.charge_entries(r, 10));
        assert!(!rm.charge_entries(r, 1), "full again");
    }

    #[test]
    fn utilization_metrics() {
        let mut rm = ResourceManager::new();
        assert_eq!(rm.memory_utilization(), 0.0);
        assert_eq!(rm.entry_utilization(), 0.0);
        rm.grant_memory(RpbId(1), RPB_MEM_SIZE).unwrap();
        let per = rm.memory_utilization_per_rpb();
        assert_eq!(per[0], 1.0);
        assert_eq!(per[1], 0.0);
        assert!((rm.memory_utilization() - 1.0 / NUM_RPBS as f64).abs() < 1e-12);
        rm.charge_entries(RpbId(2), RPB_TABLE_SIZE / 2);
        assert_eq!(rm.entry_utilization_per_rpb()[1], 0.5);
    }

    #[test]
    fn alloc_view_reflects_state() {
        let mut rm = ResourceManager::new();
        rm.grant_memory(RpbId(1), 1024).unwrap();
        rm.charge_entries(RpbId(2), 100);
        let v = rm.alloc_view();
        assert_eq!(v.mem_free[0], vec![RPB_MEM_SIZE - 1024]);
        assert_eq!(v.te_free[1], RPB_TABLE_SIZE - 100);
    }

    #[test]
    fn incremental_view_matches_full_rebuild() {
        let mut rm = ResourceManager::new();
        // A churny sequence: grants, locks, unlocks, charges, refunds.
        let a = rm.grant_memory(RpbId(4), 1024).unwrap();
        let b = rm.grant_memory(RpbId(4), 512).unwrap();
        rm.grant_memory(RpbId(9), 4096).unwrap();
        rm.charge_entries(RpbId(4), 37);
        rm.charge_entries(RpbId(22), 5);
        rm.lock_memory(RpbId(4), a, 1024);
        rm.unlock_memory(RpbId(4), a, 1024);
        rm.refund_entries(RpbId(4), 17);
        rm.lock_memory(RpbId(4), b, 512);
        rm.unlock_memory(RpbId(4), b, 512);
        let rebuilt = AllocView {
            te_free: rm.te_used.iter().map(|u| rm.table_size - u).collect(),
            mem_free: rm
                .free
                .iter()
                .map(|spans| spans.iter().map(|(_, len)| *len).collect())
                .collect(),
        };
        let v = rm.alloc_view();
        assert_eq!(v.te_free, rebuilt.te_free);
        assert_eq!(v.mem_free, rebuilt.mem_free);
    }

    #[test]
    fn init_and_recirc_budgets() {
        let mut rm = ResourceManager::new();
        assert!(rm.charge_init(INIT_TABLE_SIZE));
        assert!(!rm.charge_init(1));
        rm.refund_init(5);
        assert!(rm.charge_init(5));
        assert_eq!(rm.init_entries_used(), INIT_TABLE_SIZE);
        assert!(rm.charge_recirc(RECIRC_TABLE_SIZE));
        assert!(!rm.charge_recirc(1));
    }
}
