//! The canonical key/value record.

use std::cmp::Ordering;

use bytes::Bytes;

/// One key/value record stored in an index.
///
/// Keys and values are opaque byte strings (`bytes::Bytes`, so cloning an
/// entry never copies payloads). Ordering is by key only — the order used
/// by every sorted structure in the repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub key: Bytes,
    pub value: Bytes,
}

impl Entry {
    pub fn new(key: impl Into<Bytes>, value: impl Into<Bytes>) -> Self {
        Entry { key: key.into(), value: value.into() }
    }

    /// Byte footprint of the record itself (the `r` of the paper's cost
    /// model, §4).
    pub fn payload_size(&self) -> usize {
        self.key.len() + self.value.len()
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(k: &str, v: &str) -> Entry {
        Entry::new(k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    #[test]
    fn ordering_is_by_key() {
        assert!(e("a", "zzz") < e("b", "aaa"));
        assert_eq!(e("a", "1").cmp(&e("a", "2")), Ordering::Equal);
    }

    #[test]
    fn an_entry_is_two_windows() {
        assert_eq!(std::mem::size_of::<Entry>(), 64);
    }

    #[test]
    fn payload_size() {
        assert_eq!(e("key", "value").payload_size(), 8);
    }
}
