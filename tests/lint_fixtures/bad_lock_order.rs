//! Known-bad fixture: `lock-order` violation — the branch map is acquired
//! while a slot-head guard is still live, inverting the documented branch
//! map → slot head order (DESIGN.md §9): it can deadlock against any path
//! that resolves a name and then takes that slot's head.

impl Engine {
    pub fn wrong(&self) {
        let table = self.slot.head.read();
        let map = self.branches.read();
        let _ = (table, map);
    }
}
