//! R9 fixture: a declared snapshot type handed out by `&mut` outside
//! any choke point, and no mutator marker naming the type.

pub fn rogue(snap: &mut Snap, v: u64) {
    snap.set(v);
}

pub fn reader(snap: &Snap) -> u64 {
    snap.get()
}
