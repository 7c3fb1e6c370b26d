//! Consistent-hash ring over fleet replicas.
//!
//! The ring maps a prediction key — derived from `(system_hash,
//! binary_hash)` — to a replica index, so every client in the fleet
//! routes the same key to the same daemon and each daemon's registry
//! stays hot for its share of the keyspace. Each member contributes
//! `vnodes` points whose positions depend only on `(member, vnode)`,
//! never on who else is present, which gives the classic consistent
//! hashing guarantee: adding or removing one member only moves the keys
//! that land on (or leave) that member's points.

/// A 64-bit finalizer (splitmix64) used for ring points and keys. Good
/// avalanche, no allocation, stable across platforms and rebuilds.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The routing key for a prediction request. Both hashes are already
/// high-entropy FNV-style digests; one extra mix round decorrelates them
/// from the ring-point hashes.
pub fn predict_key(system_hash: u64, binary_hash: u64) -> u64 {
    mix64(system_hash ^ binary_hash.rotate_left(32))
}

/// A consistent-hash ring over member indices. Members are dense `u32`
/// indices into the caller's replica table; the ring itself holds no
/// endpoint state, so rebuilding it on health changes is cheap and
/// allocation is bounded by `members × vnodes` points.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted (point hash, member) pairs.
    points: Vec<(u64, u32)>,
    vnodes: u32,
}

impl HashRing {
    /// An empty ring whose members will each contribute `vnodes` points.
    pub fn new(vnodes: u32) -> HashRing {
        HashRing { points: Vec::new(), vnodes: vnodes.max(1) }
    }

    /// Points per member.
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// Number of members currently on the ring.
    pub fn members(&self) -> usize {
        if self.vnodes == 0 {
            0
        } else {
            self.points.len() / self.vnodes as usize
        }
    }

    /// True when no member is on the ring.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Rebuilds the ring from the given member indices. Point positions
    /// depend only on `(member, vnode)`, so a member's points are
    /// identical across rebuilds — the minimal-movement property.
    pub fn rebuild(&mut self, members: impl IntoIterator<Item = u32>) {
        self.points.clear();
        for m in members {
            for v in 0..self.vnodes {
                let point = mix64((u64::from(m) << 32) | u64::from(v));
                self.points.push((point, m));
            }
        }
        self.points.sort_unstable();
    }

    /// The member owning `key`: the first point clockwise from the key's
    /// position. `None` on an empty ring.
    pub fn primary(&self, key: u64) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let i = self.points.partition_point(|&(p, _)| p < key);
        let (_, member) = self.points[i % self.points.len()];
        Some(member)
    }

    /// All distinct members in clockwise preference order starting at
    /// `key` — the failover order for that key.
    pub fn ordered(&self, key: u64) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.members());
        self.extend_ordered(key, &mut out);
        out
    }

    /// [`HashRing::ordered`], appended to `out`: a caller that holds
    /// `out` across lookups allocates nothing.
    pub(crate) fn extend_ordered(&self, key: u64, out: &mut Vec<u32>) {
        let (first, n) = (out.len(), self.members());
        let start = self.points.partition_point(|&(p, _)| p < key);
        for off in 0..self.points.len() {
            if out.len() - first == n {
                break;
            }
            let (_, member) = self.points[(start + off) % self.points.len()];
            if !out[first..].contains(&member) {
                out.push(member);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_member_owns_everything() {
        let mut ring = HashRing::new(64);
        ring.rebuild([3u32]);
        for k in 0..100u64 {
            assert_eq!(ring.primary(predict_key(k, k * 7)), Some(3));
        }
        assert_eq!(ring.ordered(42), vec![3]);
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = HashRing::new(64);
        assert_eq!(ring.primary(1), None);
        assert!(ring.ordered(1).is_empty());
        assert!(ring.is_empty());
    }

    #[test]
    fn ordered_starts_at_primary_and_covers_all_members() {
        let mut ring = HashRing::new(64);
        ring.rebuild(0..5u32);
        for k in 0..200u64 {
            let key = predict_key(k, !k);
            let order = ring.ordered(key);
            assert_eq!(order.len(), 5);
            assert_eq!(order[0], ring.primary(key).unwrap());
            let mut sorted = order.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5, "ordered() must list distinct members");
        }
    }

    #[test]
    fn rebuild_is_deterministic() {
        let mut a = HashRing::new(32);
        let mut b = HashRing::new(32);
        a.rebuild([0u32, 1, 2]);
        b.rebuild([2u32, 0, 1]);
        for k in 0..64u64 {
            assert_eq!(a.primary(k), b.primary(k), "member insertion order must not matter");
        }
    }
}
