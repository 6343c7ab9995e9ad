//! Canonical byte encoding of entries inside leaf pages.
//!
//! MBT buckets, POS-Tree leaves and MVMB+-Tree leaves all serialize runs of
//! entries with this codec, so their `byte(p)` page sizes are directly
//! comparable in the deduplication metrics. (MPT stores values at trie
//! positions derived from the key, so it only uses the value half.)
//!
//! Layout per entry: `varint(key_len) key varint(value_len) value`.

use bytes::Bytes;
use siri_encoding::{ByteReader, ByteWriter, CodecError};

use crate::ordered::reservation;
use crate::{Entry, IndexError, Result};

/// Append one entry to `w`.
pub fn write_entry(w: &mut ByteWriter, entry: &Entry) {
    w.put_bytes(&entry.key);
    w.put_bytes(&entry.value);
}

/// Exact encoded size of an entry, used to pre-size buffers and by the
/// chunker to reason about byte offsets without serializing twice.
pub fn entry_encoded_len(entry: &Entry) -> usize {
    siri_encoding::varint::len(entry.key.len() as u64)
        + entry.key.len()
        + siri_encoding::varint::len(entry.value.len() as u64)
        + entry.value.len()
}

/// Exact encoded size of [`encode_entries`]' output — used to pre-size
/// node buffers to their final length in one allocation.
pub fn entries_encoded_len(entries: &[Entry]) -> usize {
    siri_encoding::varint::len(entries.len() as u64)
        + entries.iter().map(entry_encoded_len).sum::<usize>()
}

/// Serialize a run of entries (count-prefixed) into an existing writer —
/// the allocation-free path node codecs use: the run lands directly in the
/// node's page buffer instead of transiting a temporary `Vec`.
pub fn encode_entries_into(w: &mut ByteWriter, entries: &[Entry]) {
    w.put_varint(entries.len() as u64);
    for e in entries {
        write_entry(w, e);
    }
}

/// Serialize a run of entries (count-prefixed).
pub fn encode_entries(entries: &[Entry]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(entries_encoded_len(entries));
    encode_entries_into(&mut w, entries);
    w.into_vec()
}

/// Zero-copy decode of a run serialized by [`encode_entries`] that lives
/// inside `page` starting at byte `body_start` and ends the page.
///
/// Keys and values are `Bytes::slice`s of the page — no payload copies.
/// Pages are immutable and refcounted, so decoded entries stay valid for
/// as long as anyone holds them; this is the hot read path for every
/// leaf/bucket decode. Every user keeps its entries sorted, so keys must
/// strictly ascend; a key out of order fails the decode as soon as it is
/// read. The count field sizes no allocation beyond what the bytes after
/// it can hold (each entry takes at least two length bytes).
pub fn decode_entries_zc(page: &Bytes, body_start: usize) -> Result<Vec<Entry>> {
    let body = page.get(body_start..).ok_or(CodecError::Truncated)?;
    let mut r = ByteReader::new(body);
    let count = r.get_varint()?;
    let reserve = reservation(count, r.remaining(), 2)
        .ok_or(CodecError::BadLength { what: "entry count" })?;
    let mut out = Vec::with_capacity(reserve);
    let mut prev: Option<&[u8]> = None;
    for _ in 0..count {
        let key = r.get_bytes()?;
        if prev.is_some_and(|p| p >= key) {
            return Err(IndexError::CorruptStructure("unsorted entries"));
        }
        prev = Some(key);
        let koff = body_start + r.offset() - key.len();
        let vlen = r.get_varint()? as usize;
        let voff = body_start + r.offset();
        r.get_raw(vlen)?;
        out.push(Entry {
            key: page.slice(koff..koff + key.len()),
            value: page.slice(voff..voff + vlen),
        });
    }
    r.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(k: &[u8], v: &[u8]) -> Entry {
        Entry::new(k.to_vec(), v.to_vec())
    }

    #[test]
    fn round_trip() {
        let entries = vec![e(b"", b""), e(b"alpha", b"1"), e(b"beta", &[0u8; 300])];
        let enc = Bytes::from(encode_entries(&entries));
        assert_eq!(decode_entries_zc(&enc, 0).unwrap(), entries);
    }

    #[test]
    fn encoded_len_is_exact() {
        let entry = e(b"some-key", &[7u8; 200]);
        let mut w = ByteWriter::new();
        write_entry(&mut w, &entry);
        assert_eq!(w.len(), entry_encoded_len(&entry));
    }

    #[test]
    fn entries_encoded_len_is_exact() {
        for run in [vec![], vec![e(b"k", b"v")], vec![e(b"alpha", &[1u8; 300]), e(b"", b"")]] {
            assert_eq!(encode_entries(&run).len(), entries_encoded_len(&run));
        }
    }

    #[test]
    fn zero_copy_decode_matches_copying_decode() {
        let entries = vec![e(b"", b""), e(b"alpha", b"1"), e(b"beta", &[9u8; 300])];
        let mut page = vec![0xFFu8; 7]; // simulated node header
        page.extend_from_slice(&encode_entries(&entries));
        let page = Bytes::from(page);
        let zc = decode_entries_zc(&page, 7).unwrap();
        assert_eq!(zc, entries);
        // Slices point into the page (no copy): same allocation.
        assert!(zc[1].value.as_ptr() as usize - page.as_ptr() as usize > 0);
        // Corruption and truncation still rejected.
        assert!(decode_entries_zc(&page, 8).is_err());
        assert!(decode_entries_zc(&page.slice(..page.len() - 1), 7).is_err());
        assert!(decode_entries_zc(&page, page.len() + 10).is_err());
    }

    #[test]
    fn rejects_corrupt_counts_and_truncation() {
        let entries = vec![e(b"k", b"v")];
        let mut enc = encode_entries(&entries);
        enc[0] = 0xff; // count now huge/truncated varint
        assert!(decode_entries_zc(&Bytes::from(enc), 0).is_err());

        let enc = Bytes::from(encode_entries(&entries));
        for cut in 0..enc.len() {
            assert!(decode_entries_zc(&enc.slice(..cut), 0).is_err(), "truncated at {cut}");
        }
        // A count the bytes cannot hold fails before anything is parsed.
        let mut long = vec![0x80, 0x08]; // 1024 entries in 1024 bytes
        long.resize(2 + 1024, 0);
        let err = decode_entries_zc(&Bytes::from(long), 0).unwrap_err();
        assert_eq!(err, CodecError::BadLength { what: "entry count" }.into());
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut enc = encode_entries(&[e(b"k", b"v")]);
        enc.push(0);
        let err = decode_entries_zc(&Bytes::from(enc), 0).unwrap_err();
        assert_eq!(err, CodecError::TrailingBytes.into());
    }

    #[test]
    fn rejects_keys_out_of_order_or_repeated() {
        for run in [vec![e(b"b", b"1"), e(b"a", b"2")], vec![e(b"a", b"1"), e(b"a", b"2")]] {
            let err = decode_entries_zc(&Bytes::from(encode_entries(&run)), 0).unwrap_err();
            assert_eq!(err, IndexError::CorruptStructure("unsorted entries"));
        }
    }
}
