//! Seeded inputs and the content models the outputs are checked against.
//!
//! Every payload the benchmark writes is a slice of one [`Pool`] of
//! seeded random bytes, so a model only has to remember *where in the
//! pool* each slot's bytes came from. Slices are refcounted views, which
//! also keeps the cluster's memory bounded however many versions a run
//! writes.

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// A buffer of seeded random bytes that every payload is cut from.
#[derive(Clone)]
pub struct Pool {
    bytes: Bytes,
}

impl Pool {
    /// `len` bytes drawn from `seed`.
    pub fn new(seed: u64, len: usize) -> Pool {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut v = Vec::with_capacity(len + 8);
        while v.len() < len {
            v.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        v.truncate(len);
        Pool {
            bytes: Bytes::from(v),
        }
    }

    /// The `len` bytes at `off`.
    pub fn slice(&self, off: usize, len: usize) -> Bytes {
        self.bytes.slice(off..off + len)
    }

    /// A random offset at which `len` bytes fit, aligned to 64 bytes.
    pub fn pick(&self, rng: &mut SmallRng, len: usize) -> usize {
        rng.random_range(0..(self.bytes.len() - len) / 64 + 1) * 64
    }
}

/// What each slot (a blob range, a page, an object) must read back as:
/// the pool slice last written to it.
pub struct SlotModel {
    pool: Pool,
    len: usize,
    slots: Vec<usize>,
}

impl SlotModel {
    /// A model of `len`-byte slots over `pool`, initially empty.
    pub fn new(pool: Pool, len: usize) -> SlotModel {
        SlotModel {
            pool,
            len,
            slots: Vec::new(),
        }
    }

    /// Append a slot written from pool offset `off`; returns its index.
    pub fn push(&mut self, off: usize) -> usize {
        self.slots.push(off);
        self.slots.len() - 1
    }

    /// Record that slot `i` was overwritten from pool offset `off`.
    pub fn set(&mut self, i: usize, off: usize) {
        self.slots[i] = off;
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// The bytes slot `i` must hold.
    pub fn expected(&self, i: usize) -> Bytes {
        self.pool.slice(self.slots[i], self.len)
    }

    /// Does `got` equal slot `i`'s bytes, byte for byte?
    pub fn check(&self, i: usize, got: &[u8]) -> bool {
        got == &self.expected(i)[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pool() {
        let a = Pool::new(7, 4096);
        assert_eq!(a.slice(0, 4096), Pool::new(7, 4096).slice(0, 4096));
        assert_ne!(a.slice(0, 4096), Pool::new(8, 4096).slice(0, 4096));
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let off = a.pick(&mut rng, 1024);
            assert!(off.is_multiple_of(64) && off + 1024 <= 4096);
        }
    }

    /// A read that differs from the model in a single byte is caught,
    /// for each of the three ways the workloads use a model.
    #[test]
    fn a_corrupted_byte_is_caught() {
        let pool = Pool::new(3, 1 << 20);
        let mut rng = SmallRng::seed_from_u64(4);

        // bulk: appended 4 KiB ranges, read back in any order.
        let mut ranges = SlotModel::new(pool.clone(), 4096);
        for _ in 0..8 {
            ranges.push(pool.pick(&mut rng, 4096));
        }
        // meta-mix: pages overwritten in place.
        let mut pages = SlotModel::new(pool.clone(), 512);
        for _ in 0..16 {
            pages.push(pool.pick(&mut rng, 512));
        }
        pages.set(5, pool.pick(&mut rng, 512));
        // s3-mix: whole objects replaced by PUT.
        let mut objects = SlotModel::new(pool.clone(), 8192);
        objects.push(0);
        objects.set(0, pool.pick(&mut rng, 8192));

        for (model, slot) in [(&ranges, 3), (&pages, 5), (&objects, 0)] {
            let good = model.expected(slot).to_vec();
            assert!(model.check(slot, &good));
            for at in [0, good.len() / 2, good.len() - 1] {
                let mut bad = good.clone();
                bad[at] ^= 0x01;
                assert!(!model.check(slot, &bad), "flip at {at} went unnoticed");
            }
            assert!(
                !model.check(slot, &good[1..]),
                "a short read went unnoticed"
            );
        }
    }
}
