//! R9 fixture: the declared snapshot type is mutated only through its
//! marked choke point; shared borrows and a waived site stay silent.

// lint:mutator(Snap)
pub fn sanctioned(snap: &mut Snap, v: u64) {
    snap.set(v);
}

pub fn reader(snap: &Snap) -> u64 {
    snap.get()
}

// lint:allow(snapshot-discipline) -- fixture's one waived handle
pub fn waived(snap: &mut Snap) -> &mut Snap {
    snap
}
