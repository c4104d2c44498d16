//! Content hashing: an FNV-1a 128-bit hasher and the [`Fingerprint`] type.
//!
//! The experiment service addresses cached simulation results by a **stable
//! content hash** over everything that determines a cell's outcome
//! (simulation config, workload description, scheduler id, seed). With no
//! crates.io access there is no `sha2`/`siphasher`, so this module provides
//! the small, auditable stand-in: FNV-1a with the 128-bit parameters of
//! Fowler–Noll–Vo. The 128-bit state makes accidental collisions across a
//! result cache of any realistic size a non-issue (the cache is a
//! memoisation layer for a deterministic simulator, not a security
//! boundary — FNV is *not* collision-resistant against adversaries).
//!
//! Hashes are **stable across runs, platforms and versions of this
//! workspace**: the canonical input is a compact JSON document (object keys
//! sorted by [`crate::json`]'s `BTreeMap`), and the golden tests in
//! `mapreduce-experiments` pin concrete fingerprints so an accidental change
//! to the canonicalisation shows up as a test failure, not as a silently
//! cold cache.

use crate::json::{FromJson, JsonError, JsonValue, ToJson};
use std::fmt;

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime (`2^88 + 2^8 + 0x3b`).
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Incremental FNV-1a 128-bit hasher.
///
/// ```
/// use mapreduce_support::hash::Fnv1a128;
/// let mut h = Fnv1a128::new();
/// h.write(b"hello ");
/// h.write(b"world");
/// assert_eq!(h.finish(), Fnv1a128::hash(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Fnv1a128 {
    state: u128,
}

impl Default for Fnv1a128 {
    fn default() -> Self {
        Fnv1a128::new()
    }
}

impl Fnv1a128 {
    /// A hasher in the initial (offset-basis) state.
    pub fn new() -> Self {
        Fnv1a128 { state: FNV_OFFSET }
    }

    /// Folds `bytes` into the state, one byte at a time (xor, then multiply
    /// by the FNV prime — the "1a" variant).
    pub fn write(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        for &b in bytes {
            state ^= b as u128;
            state = state.wrapping_mul(FNV_PRIME);
        }
        self.state = state;
    }

    /// The current hash value.
    pub fn finish(&self) -> u128 {
        self.state
    }

    /// One-shot convenience: the FNV-1a 128-bit hash of `bytes`.
    pub fn hash(bytes: &[u8]) -> u128 {
        let mut h = Fnv1a128::new();
        h.write(bytes);
        h.finish()
    }
}

/// A 128-bit content fingerprint, rendered as 32 lowercase hex digits.
///
/// Fingerprints identify simulation cells in the experiment service's result
/// cache: equal content ⇒ equal fingerprint ⇒ the cached outcome can be
/// reused instead of re-simulating. Build one from canonical bytes with
/// [`Fingerprint::of_bytes`] or — the convention used throughout the
/// workspace — from a canonical JSON document with [`Fingerprint::of_json`]
/// (compact serialization, object keys already sorted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Fingerprint of raw bytes.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        Fingerprint(Fnv1a128::hash(bytes))
    }

    /// Fingerprint of a JSON document's canonical (compact) serialization.
    ///
    /// [`JsonValue`] objects keep their keys sorted, so two structurally
    /// equal documents always produce the same bytes — this is what makes
    /// the fingerprint content-addressed rather than representation-
    /// addressed.
    pub fn of_json(value: &JsonValue) -> Self {
        Self::of_bytes(value.to_compact_string().as_bytes())
    }

    /// The 32-digit lowercase hex rendering.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the exact 32-digit hex rendering produced by
    /// [`Fingerprint::to_hex`]. Returns `None` for any other shape.
    pub fn from_hex(text: &str) -> Option<Self> {
        if text.len() != 32 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(text, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl ToJson for Fingerprint {
    fn to_json(&self) -> JsonValue {
        JsonValue::String(self.to_hex())
    }
}

impl FromJson for Fingerprint {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let text = value
            .as_str()
            .ok_or_else(|| JsonError::new("expected fingerprint string"))?;
        Fingerprint::from_hex(text)
            .ok_or_else(|| JsonError::new(format!("invalid fingerprint `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_hashes_to_the_offset_basis() {
        assert_eq!(Fnv1a128::hash(b""), FNV_OFFSET);
        assert_eq!(Fnv1a128::new().finish(), FNV_OFFSET);
    }

    #[test]
    fn single_byte_matches_the_fnv_1a_definition() {
        // One round by hand: (offset ^ byte) * prime.
        let expected = (FNV_OFFSET ^ 0x61).wrapping_mul(FNV_PRIME);
        assert_eq!(Fnv1a128::hash(b"a"), expected);
    }

    #[test]
    fn incremental_writes_match_one_shot() {
        let mut h = Fnv1a128::new();
        h.write(b"scenario:");
        h.write(&2015u64.to_le_bytes());
        h.write(b"/fifo");
        let mut flat = b"scenario:".to_vec();
        flat.extend_from_slice(&2015u64.to_le_bytes());
        flat.extend_from_slice(b"/fifo");
        assert_eq!(h.finish(), Fnv1a128::hash(&flat));
    }

    #[test]
    fn distinct_inputs_produce_distinct_hashes() {
        let inputs: &[&[u8]] = &[b"", b"a", b"b", b"ab", b"ba", b"fifo", b"fif\x00o"];
        for (i, a) in inputs.iter().enumerate() {
            for b in &inputs[i + 1..] {
                assert_ne!(Fnv1a128::hash(a), Fnv1a128::hash(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn fingerprint_hex_roundtrip() {
        let fp = Fingerprint::of_bytes(b"cell");
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fingerprint::from_hex(&hex), Some(fp));
        assert_eq!(fp.to_string(), hex);
        // Leading zeros are preserved.
        let small = Fingerprint(0x2a);
        assert_eq!(small.to_hex(), "0000000000000000000000000000002a");
        assert_eq!(Fingerprint::from_hex(&small.to_hex()), Some(small));
    }

    #[test]
    fn fingerprint_rejects_malformed_hex() {
        for bad in [
            "",
            "zz",
            "123",
            &"f".repeat(33),
            "+123456789abcdef0123456789abcdef",
        ] {
            assert_eq!(Fingerprint::from_hex(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn fingerprint_json_roundtrip() {
        let fp = Fingerprint::of_bytes(b"json");
        let back = Fingerprint::from_json(&fp.to_json()).unwrap();
        assert_eq!(back, fp);
        assert!(Fingerprint::from_json(&JsonValue::Integer(3)).is_err());
        assert!(Fingerprint::from_json(&JsonValue::String("xyz".into())).is_err());
    }

    #[test]
    fn of_json_is_representation_independent() {
        // Two structurally equal documents hash identically regardless of
        // the field order they were built in (keys are sorted).
        let a = JsonValue::object([("b", 1u64.to_json()), ("a", 2u64.to_json())]);
        let b = JsonValue::object([("a", 2u64.to_json()), ("b", 1u64.to_json())]);
        assert_eq!(Fingerprint::of_json(&a), Fingerprint::of_json(&b));
        let c = JsonValue::object([("a", 2u64.to_json()), ("b", 7u64.to_json())]);
        assert_ne!(Fingerprint::of_json(&a), Fingerprint::of_json(&c));
    }
}
