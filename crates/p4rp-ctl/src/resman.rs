//! The resource manager (§3.1): dynamic resource usage tracking.
//!
//! Maintains, per RPB: the free-memory partition list (the paper uses
//! bidirectional linked lists of free partitions supporting only
//! *continuous* allocation; an address-ordered vector of `(offset, len)`
//! spans is the idiomatic Rust equivalent with identical semantics), the
//! free table entries, and the set of *locked* regions — memory being
//! reset during program termination, unavailable for reallocation until
//! the reset completes (Figure 6 step ④).
//!
//! The free lists and entry counts are the allocator's [`AllocView`]
//! itself: the solver borrows them, decides every placement, and the
//! resource manager commits the regions it chose ([`ResourceManager::take`]).
//! Nothing here places memory.

use p4rp_compiler::alloc::AllocView;
use p4rp_dataplane::{RpbId, NUM_RPBS, RPB_MEM_SIZE, RPB_TABLE_SIZE};
use p4rp_dataplane::{INIT_TABLE_SIZE, RECIRC_TABLE_SIZE};

/// Memory/entry bookkeeping for the whole data plane.
#[derive(Debug, Clone)]
pub struct ResourceManager {
    /// Free entries and address-ordered free spans per RPB.
    view: AllocView,
    /// Regions locked pending reset.
    locked: Vec<Vec<(u32, u32)>>,
    init_used: usize,
    recirc_used: usize,
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
            view: AllocView::unconstrained(RPB_TABLE_SIZE, RPB_MEM_SIZE),
            locked: vec![Vec::new(); NUM_RPBS],
            init_used: 0,
            recirc_used: 0,
        }
    }

    fn idx(rpb: RpbId) -> usize {
        usize::from(rpb.0) - 1
    }

    /// The allocator's view of current availability: the free state
    /// itself (clone it for a speculative snapshot).
    pub fn alloc_view(&self) -> &AllocView {
        &self.view
    }

    /// Commit a region the allocator placed: carve `[offset, offset + size)`
    /// out of the free span that holds it. `false` when no free span holds
    /// it — the placement was decided on a stale view.
    pub(crate) fn take(&mut self, rpb: RpbId, offset: u32, size: u32) -> bool {
        let spans = &mut self.view.mem_free[Self::idx(rpb)];
        let end = offset + size;
        let Some(pos) = spans.iter().position(|&(o, len)| o <= offset && end <= o + len) else {
            return false;
        };
        let (o, len) = spans[pos];
        spans[pos] = (o, offset - o);
        if end < o + len {
            spans.insert(pos + 1, (end, o + len - end));
        }
        if offset == o {
            spans.remove(pos);
        }
        true
    }

    /// Lock a region for reset: it is neither free nor usable.
    pub(crate) fn lock_memory(&mut self, rpb: RpbId, offset: u32, size: u32) {
        self.locked[Self::idx(rpb)].push((offset, size));
    }

    /// The regions of `rpb` locked pending reset.
    #[cfg(test)]
    pub(crate) fn locked(&self, rpb: RpbId) -> &[(u32, u32)] {
        &self.locked[Self::idx(rpb)]
    }

    /// Reset finished: merge the region back into the free list.
    pub(crate) fn unlock_memory(&mut self, rpb: RpbId, offset: u32, size: u32) {
        let locked = &mut self.locked[Self::idx(rpb)];
        if let Some(pos) = locked.iter().position(|&(o, s)| o == offset && s == size) {
            locked.remove(pos);
        }
        let spans = &mut self.view.mem_free[Self::idx(rpb)];
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
    }

    /// Charge `n` table entries to an RPB; `false` if it would overflow.
    pub(crate) fn charge_entries(&mut self, rpb: RpbId, n: usize) -> bool {
        let free = &mut self.view.te_free[Self::idx(rpb)];
        if n > *free {
            return false;
        }
        *free -= n;
        true
    }

    /// Refund entries charged earlier.
    pub(crate) fn refund_entries(&mut self, rpb: RpbId, n: usize) {
        let free = &mut self.view.te_free[Self::idx(rpb)];
        *free += n;
        assert!(*free <= RPB_TABLE_SIZE, "refunded entries never charged");
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
        let total = f64::from(RPB_MEM_SIZE) * NUM_RPBS as f64;
        let free: u64 = self
            .view
            .mem_free
            .iter()
            .chain(&self.locked)
            .flat_map(|s| s.iter().map(|(_, l)| u64::from(*l)))
            .sum();
        1.0 - free as f64 / total
    }

    /// Fraction of RPB table entries in use.
    pub fn entry_utilization(&self) -> f64 {
        let used: usize = self.view.te_free.iter().map(|f| RPB_TABLE_SIZE - f).sum();
        used as f64 / (RPB_TABLE_SIZE * NUM_RPBS) as f64
    }

    /// Per-RPB memory utilization (Figure 18 heatmap rows).
    pub(crate) fn memory_utilization_per_rpb(&self) -> Vec<f64> {
        self.view
            .mem_free
            .iter()
            .zip(&self.locked)
            .map(|(free, locked)| {
                let unused: u64 = free.iter().chain(locked).map(|(_, l)| u64::from(*l)).sum();
                1.0 - unused as f64 / f64::from(RPB_MEM_SIZE)
            })
            .collect()
    }

    /// Per-RPB entry utilization (Figure 19 heatmap rows).
    pub(crate) fn entry_utilization_per_rpb(&self) -> Vec<f64> {
        self.view
            .te_free
            .iter()
            .map(|f| (RPB_TABLE_SIZE - f) as f64 / RPB_TABLE_SIZE as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_carves_and_unlock_coalesces() {
        let mut rm = ResourceManager::new();
        let r = RpbId(3);
        assert!(rm.take(r, 0, 1024) && rm.take(r, 1024, 1024) && rm.take(r, 2048, 2048));
        // Free the middle region: fragmentation.
        rm.lock_memory(r, 1024, 1024);
        rm.unlock_memory(r, 1024, 1024);
        assert_eq!(
            rm.alloc_view().mem_free[2],
            vec![(1024, 1024), (4096, RPB_MEM_SIZE - 4096)]
        );
        // A region that overruns the 1024 hole is not free (stale view).
        assert!(!rm.take(r, 1024, 2048));
        assert!(rm.take(r, 4096, 2048));
        assert!(rm.take(r, 1024, 1024));
        // Free [0, 2048): coalescing reconstructs one span.
        rm.unlock_memory(r, 0, 1024);
        rm.unlock_memory(r, 1024, 1024);
        assert_eq!(rm.alloc_view().mem_free[2][0], (0, 2048));
        assert!(rm.take(r, 0, 2048));
    }

    #[test]
    fn take_inside_a_span_splits_it() {
        let mut rm = ResourceManager::new();
        let r = RpbId(2);
        assert!(rm.take(r, 256, 128));
        assert_eq!(
            rm.alloc_view().mem_free[1],
            vec![(0, 256), (384, RPB_MEM_SIZE - 384)]
        );
        assert!(!rm.take(r, 200, 128), "overlaps the taken region");
        assert!(rm.take(r, 0, 256));
        assert_eq!(rm.alloc_view().mem_free[1], vec![(384, RPB_MEM_SIZE - 384)]);
    }

    #[test]
    fn locked_memory_not_reallocatable() {
        let mut rm = ResourceManager::new();
        let r = RpbId(1);
        // Exhaust the array.
        assert!(rm.take(r, 0, RPB_MEM_SIZE));
        assert!(!rm.take(r, 0, 1));
        rm.lock_memory(r, 0, RPB_MEM_SIZE);
        // Still locked → still unavailable.
        assert!(!rm.take(r, 0, 1));
        rm.unlock_memory(r, 0, RPB_MEM_SIZE);
        assert!(rm.take(r, 0, 1));
    }

    #[test]
    fn a_region_past_the_array_is_refused() {
        let mut rm = ResourceManager::new();
        let r = RpbId(7);
        assert!(!rm.take(r, 0, RPB_MEM_SIZE + 1));
        assert!(!rm.take(r, RPB_MEM_SIZE, 1));
        assert!(rm.take(r, 0, RPB_MEM_SIZE));
        assert!(rm.alloc_view().mem_free[6].is_empty());
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
        assert!(rm.take(RpbId(1), 0, RPB_MEM_SIZE));
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
        assert!(rm.take(RpbId(1), 0, 1024));
        rm.charge_entries(RpbId(2), 100);
        let v = rm.alloc_view();
        assert_eq!(v.mem_free[0], vec![(1024, RPB_MEM_SIZE - 1024)]);
        assert_eq!(v.te_free[1], RPB_TABLE_SIZE - 100);
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
