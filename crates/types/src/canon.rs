//! Canonical byte serialization and content-addressed keys.
//!
//! Every simulation in this reproduction is deterministic: the statistics of
//! a run are fully determined by its configuration. That makes a run point
//! *content-addressable* — a canonical byte form of the configuration can
//! key a cache of completed results. This module defines that byte form:
//!
//! * [`CanonBuf`] — an append-only byte buffer with fixed-width
//!   little-endian integer writes and length-prefixed strings, so the
//!   encoding is injective (no two distinct field sequences share bytes);
//! * [`Canonical`] — the trait a configuration type implements to write its
//!   fields, in a fixed documented order, into a [`CanonBuf`];
//! * [`CanonKey`] — a 128-bit digest of the canonical bytes, computed with
//!   two independent [`hash64`] chains. Equal
//!   configurations always produce equal keys; distinct configurations
//!   collide with probability ~2⁻¹²⁸ per pair, which is negligible next to
//!   the simulation counts this repo can ever produce.
//!
//! The serving layer (`swarm_serve`) uses [`CanonKey`] to name cached
//! `RunStats` entries in memory and on disk; the hex
//! form ([`CanonKey::hex`]) is the on-disk file name.
//!
//! # Example
//!
//! ```
//! use swarm_types::{key_of, Canonical, SystemConfig};
//!
//! let a = SystemConfig::with_cores(16);
//! let mut b = SystemConfig::with_cores(16);
//! assert_eq!(key_of(&a), key_of(&b), "equal configs share a key");
//! b.lb_epoch += 1;
//! assert_ne!(key_of(&a), key_of(&b), "any field change moves the key");
//! ```

use std::fmt;

use crate::config::{self, CacheConfig, NocConfig, NocModel, QueueConfig, SystemConfig};
use crate::hashing::hash64;

/// Append-only byte buffer for canonical encodings.
///
/// All integers are written fixed-width little-endian; strings are
/// length-prefixed. Fixed widths are what make the encoding injective: a
/// field can never borrow bytes from its neighbour, so two value sequences
/// that differ in any field differ in the output bytes.
#[derive(Debug, Default, Clone)]
pub struct CanonBuf {
    bytes: Vec<u8>,
}

impl CanonBuf {
    /// An empty buffer.
    pub fn new() -> CanonBuf {
        CanonBuf::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (canonical encodings must not depend on
    /// the host's pointer width).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append a string, length-prefixed with its byte length as a `u64`.
    pub fn put_str(&mut self, v: &str) {
        self.put_u64(v.len() as u64);
        self.bytes.extend_from_slice(v.as_bytes());
    }
}

/// A type with a canonical byte form.
///
/// Implementations must write every semantically relevant field, in a fixed
/// order, using the fixed-width [`CanonBuf`] writers — never a formatting
/// shortcut whose output could collide across distinct values.
pub trait Canonical {
    /// Append this value's canonical bytes to `buf`.
    fn canonicalize(&self, buf: &mut CanonBuf);

    /// The 128-bit content key of this value (see [`key_of`]).
    fn canon_key(&self) -> CanonKey {
        key_of(self)
    }
}

/// Compute the [`CanonKey`] of any [`Canonical`] value.
pub fn key_of<T: Canonical + ?Sized>(value: &T) -> CanonKey {
    let mut buf = CanonBuf::new();
    value.canonicalize(&mut buf);
    CanonKey::of_bytes(buf.as_bytes())
}

/// A 128-bit content key over a canonical byte string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonKey {
    /// High 64 bits of the digest.
    pub hi: u64,
    /// Low 64 bits of the digest.
    pub lo: u64,
}

impl CanonKey {
    /// Digest a byte string with two independent [`hash64`] chains.
    ///
    /// The chains differ in their initial state and in how each word is
    /// mixed in, and both absorb the input length, so prefix-extended
    /// inputs and zero-padded tails produce different keys.
    pub fn of_bytes(bytes: &[u8]) -> CanonKey {
        let mut hi = hash64(0x5EED_CAFE_0000_0001 ^ bytes.len() as u64);
        let mut lo = hash64(0x5EED_CAFE_0000_0002 ^ (bytes.len() as u64).rotate_left(32));
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let word = u64::from_le_bytes(word);
            hi = hash64(hi ^ word);
            lo = hash64(lo.rotate_left(32) ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        CanonKey { hi, lo }
    }

    /// The 32-character lowercase hex form (stable; used as the on-disk
    /// cache file name).
    pub fn hex(&self) -> String {
        format!("{self}")
    }
}

impl fmt::Display for CanonKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

impl Canonical for u8 {
    fn canonicalize(&self, buf: &mut CanonBuf) {
        buf.put_u8(*self);
    }
}

impl Canonical for u32 {
    fn canonicalize(&self, buf: &mut CanonBuf) {
        buf.put_u32(*self);
    }
}

impl Canonical for u64 {
    fn canonicalize(&self, buf: &mut CanonBuf) {
        buf.put_u64(*self);
    }
}

impl Canonical for usize {
    fn canonicalize(&self, buf: &mut CanonBuf) {
        buf.put_usize(*self);
    }
}

impl Canonical for bool {
    fn canonicalize(&self, buf: &mut CanonBuf) {
        buf.put_bool(*self);
    }
}

impl Canonical for str {
    fn canonicalize(&self, buf: &mut CanonBuf) {
        buf.put_str(self);
    }
}

impl Canonical for String {
    fn canonicalize(&self, buf: &mut CanonBuf) {
        buf.put_str(self);
    }
}

/// `None` writes a 0 tag; `Some(v)` writes a 1 tag followed by `v`.
impl<T: Canonical> Canonical for Option<T> {
    fn canonicalize(&self, buf: &mut CanonBuf) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.canonicalize(buf);
            }
        }
    }
}

/// Length-prefixed element sequence.
impl<T: Canonical> Canonical for [T] {
    fn canonicalize(&self, buf: &mut CanonBuf) {
        buf.put_usize(self.len());
        for item in self {
            item.canonicalize(buf);
        }
    }
}

impl<T: Canonical> Canonical for Vec<T> {
    fn canonicalize(&self, buf: &mut CanonBuf) {
        self.as_slice().canonicalize(buf);
    }
}

// The fixed machine constants of `config` are written too, so editing one
// moves every key.

impl Canonical for CacheConfig {
    fn canonicalize(&self, buf: &mut CanonBuf) {
        buf.put_u64(config::L1_LATENCY);
        buf.put_usize(self.l1_lines);
        buf.put_u64(config::L2_LATENCY);
        buf.put_usize(self.l2_lines);
        buf.put_u64(config::L3_LATENCY);
        buf.put_usize(self.l3_lines_per_tile);
        buf.put_u64(config::MEM_LATENCY);
    }
}

impl Canonical for NocModel {
    fn canonicalize(&self, buf: &mut CanonBuf) {
        buf.put_u8(match self {
            NocModel::Analytic => 0,
            NocModel::Contention => 1,
        });
    }
}

impl Canonical for NocConfig {
    fn canonicalize(&self, buf: &mut CanonBuf) {
        buf.put_u64(config::HOP_LATENCY);
        buf.put_u64(config::TURN_PENALTY);
        buf.put_u64(config::LINK_BITS);
        buf.put_u64(config::CONTROL_FLITS);
        self.model.canonicalize(buf);
        buf.put_u64(self.link_flits_per_cycle);
    }
}

impl Canonical for QueueConfig {
    fn canonicalize(&self, buf: &mut CanonBuf) {
        buf.put_usize(self.task_queue_per_core);
        buf.put_usize(self.commit_queue_per_core);
        buf.put_usize(self.spill_batch);
        buf.put_u64(config::SPILL_COST_PER_TASK);
    }
}

impl Canonical for SystemConfig {
    fn canonicalize(&self, buf: &mut CanonBuf) {
        buf.put_u32(self.tiles_x);
        buf.put_u32(self.tiles_y);
        buf.put_u32(self.cores_per_tile);
        self.cache.canonicalize(buf);
        self.noc.canonicalize(buf);
        self.queues.canonicalize(buf);
        buf.put_u64(config::CONFLICT_CHECK_COST);
        buf.put_u64(config::CONFLICT_COMPARE_COST);
        buf.put_u64(config::GVT_EPOCH);
        buf.put_u64(config::TASK_MGMT_COST);
        buf.put_u64(config::TASK_BASE_COST);
        buf.put_usize(config::LB_BUCKETS_PER_TILE);
        buf.put_u64(self.lb_epoch);
        buf.put_u8(config::LB_CORRECTION_PCT);
        buf.put_u64(config::POLICY_SEED);
        buf.put_u64(self.max_cycles);
        buf.put_u64(self.max_wall_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_share_keys_and_bytes() {
        let a = SystemConfig::with_cores(16);
        let b = SystemConfig::with_cores(16);
        let mut ba = CanonBuf::new();
        let mut bb = CanonBuf::new();
        a.canonicalize(&mut ba);
        b.canonicalize(&mut bb);
        assert_eq!(ba.as_bytes(), bb.as_bytes());
        assert_eq!(key_of(&a), key_of(&b));
    }

    #[test]
    fn every_system_config_field_moves_the_key() {
        // One mutator per field (including every nested field); each edited
        // config must produce a key distinct from the base and from every
        // other edit — the injectivity the result cache depends on.
        let mutators: Vec<fn(&mut SystemConfig)> = vec![
            |c| c.tiles_x += 1,
            |c| c.tiles_y += 1,
            |c| c.cores_per_tile += 1,
            |c| c.cache.l1_lines += 1,
            |c| c.cache.l2_lines += 1,
            |c| c.cache.l3_lines_per_tile += 1,
            |c| c.noc.model = NocModel::Contention,
            |c| c.noc.link_flits_per_cycle += 1,
            |c| c.queues.task_queue_per_core += 1,
            |c| c.queues.commit_queue_per_core += 1,
            |c| c.queues.spill_batch += 1,
            |c| c.lb_epoch += 1,
            |c| c.max_cycles += 1,
            |c| c.max_wall_ms += 1,
        ];
        let base = SystemConfig::with_cores(16);
        let mut keys = vec![key_of(&base)];
        for (i, m) in mutators.iter().enumerate() {
            let mut edited = base.clone();
            m(&mut edited);
            let key = key_of(&edited);
            assert!(!keys.contains(&key), "mutator #{i} collided with an earlier key");
            keys.push(key);
        }
    }

    #[test]
    fn string_lengths_prevent_prefix_collisions() {
        // ["ab","c"] and ["a","bc"] concatenate identically; the length
        // prefixes must keep them apart.
        let a = vec!["ab".to_string(), "c".to_string()];
        let b = vec!["a".to_string(), "bc".to_string()];
        assert_ne!(key_of(&a), key_of(&b));
    }

    #[test]
    fn option_tags_distinguish_none_from_zero() {
        let none: Option<u64> = None;
        let zero: Option<u64> = Some(0);
        assert_ne!(key_of(&none), key_of(&zero));
    }

    #[test]
    fn hex_is_32_lowercase_chars_and_stable() {
        let key = key_of(&SystemConfig::default());
        let hex = key.hex();
        assert_eq!(hex.len(), 32);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        assert_eq!(hex, key.hex(), "hex form is deterministic");
        assert_eq!(hex, format!("{key}"));
    }

    #[test]
    fn trailing_zero_bytes_change_the_key() {
        // The digest absorbs the length, so zero-padding that the chunked
        // word loop alone would not see still changes the key.
        let a = CanonKey::of_bytes(&[1, 2, 3]);
        let b = CanonKey::of_bytes(&[1, 2, 3, 0]);
        assert_ne!(a, b);
    }
}
