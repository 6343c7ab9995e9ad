//! Recursive Length Prefix (RLP) — Ethereum's canonical serialization.
//!
//! RLP encodes two kinds of items: byte strings and lists of items. The
//! paper uses RLP twice: MPT nodes are RLP lists (§3.4.1, as in Ethereum),
//! and the Ethereum transaction workload stores RLP-encoded raw transactions
//! (§5.1.3). This is a complete encoder/decoder for both item kinds,
//! including canonical-form validation on decode.
//!
//! Encoding rules (yellow paper appendix B):
//! * single byte < 0x80: itself
//! * string 0–55 bytes: `0x80 + len`, then the bytes
//! * string > 55 bytes: `0xb7 + len(len)`, big-endian length, bytes
//! * list with payload 0–55 bytes: `0xc0 + len`, then items
//! * list with payload > 55 bytes: `0xf7 + len(len)`, big-endian length, items

use std::fmt;

/// A decoded RLP item: a byte string or a list of items.
#[derive(Clone, PartialEq, Eq)]
pub enum RlpItem {
    Bytes(Vec<u8>),
    List(Vec<RlpItem>),
}

impl fmt::Debug for RlpItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RlpItem::Bytes(b) => write!(f, "Bytes(0x{})", hexish(b)),
            RlpItem::List(items) => f.debug_list().entries(items).finish(),
        }
    }
}

fn hexish(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// Errors from [`decode_partial`] / [`RlpItem::decode_all`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RlpError {
    /// Input ended before the announced length.
    Truncated,
    /// Trailing bytes after the top-level item.
    TrailingBytes,
    /// Non-minimal length encoding or a single byte encoded long-form.
    NonCanonical,
    /// Length prefix overflows usize.
    LengthOverflow,
    /// Decoder expected one kind of item and found the other.
    TypeMismatch { expected: &'static str },
    /// A list holds more items than its fixed-size reader takes.
    TooManyItems,
}

impl fmt::Display for RlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RlpError::Truncated => write!(f, "rlp: input truncated"),
            RlpError::TrailingBytes => write!(f, "rlp: trailing bytes after item"),
            RlpError::NonCanonical => write!(f, "rlp: non-canonical encoding"),
            RlpError::LengthOverflow => write!(f, "rlp: length overflows usize"),
            RlpError::TypeMismatch { expected } => write!(f, "rlp: expected {expected}"),
            RlpError::TooManyItems => write!(f, "rlp: list has too many items"),
        }
    }
}

impl std::error::Error for RlpError {}

impl RlpItem {
    pub fn bytes(b: impl Into<Vec<u8>>) -> Self {
        RlpItem::Bytes(b.into())
    }

    pub fn list(items: impl Into<Vec<RlpItem>>) -> Self {
        RlpItem::List(items.into())
    }

    /// Encode an unsigned integer as a minimal big-endian byte string (the
    /// Ethereum scalar convention: zero is the empty string).
    pub fn uint(v: u64) -> Self {
        if v == 0 {
            return RlpItem::Bytes(Vec::new());
        }
        let be = v.to_be_bytes();
        let skip = be.iter().take_while(|&&b| b == 0).count();
        RlpItem::Bytes(be[skip..].to_vec())
    }

    /// Decode a scalar encoded via [`RlpItem::uint`].
    pub fn as_uint(&self) -> Result<u64, RlpError> {
        let b = self.as_bytes()?;
        if b.len() > 8 {
            return Err(RlpError::LengthOverflow);
        }
        if b.first() == Some(&0) {
            return Err(RlpError::NonCanonical); // leading zeros are forbidden
        }
        let mut v = 0u64;
        for &byte in b {
            v = v << 8 | byte as u64;
        }
        Ok(v)
    }

    pub fn as_bytes(&self) -> Result<&[u8], RlpError> {
        match self {
            RlpItem::Bytes(b) => Ok(b),
            RlpItem::List(_) => Err(RlpError::TypeMismatch { expected: "bytes" }),
        }
    }

    pub fn as_list(&self) -> Result<&[RlpItem], RlpError> {
        match self {
            RlpItem::List(l) => Ok(l),
            RlpItem::Bytes(_) => Err(RlpError::TypeMismatch { expected: "list" }),
        }
    }

    /// Serialize this item.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Exact length of [`RlpItem::encode`]'s output, computed without
    /// allocating — node codecs use this to pre-size buffers.
    pub fn encoded_len(&self) -> usize {
        match self {
            RlpItem::Bytes(b) => {
                if b.len() == 1 && b[0] < 0x80 {
                    1
                } else {
                    prefix_len(b.len()) + b.len()
                }
            }
            RlpItem::List(items) => {
                let payload: usize = items.iter().map(|i| i.encoded_len()).sum();
                prefix_len(payload) + payload
            }
        }
    }

    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            RlpItem::Bytes(b) => {
                if b.len() == 1 && b[0] < 0x80 {
                    out.push(b[0]);
                } else {
                    write_prefix(out, 0x80, b.len());
                    out.extend_from_slice(b);
                }
            }
            RlpItem::List(items) => {
                let payload: usize = items.iter().map(|i| i.encoded_len()).sum();
                write_prefix(out, 0xc0, payload);
                for item in items {
                    item.encode_into(out);
                }
            }
        }
    }

    /// Decode exactly one item consuming the whole input.
    pub fn decode_all(input: &[u8]) -> Result<RlpItem, RlpError> {
        let (item, rest) = decode_partial(input)?;
        if !rest.is_empty() {
            return Err(RlpError::TrailingBytes);
        }
        Ok(item)
    }
}

fn prefix_len(payload: usize) -> usize {
    if payload <= 55 {
        1
    } else {
        1 + be_len(payload)
    }
}

/// Exact encoded length of `payload` as an RLP string, including the
/// single-byte literal form.
pub fn str_encoded_len(payload: &[u8]) -> usize {
    if payload.len() == 1 && payload[0] < 0x80 {
        1
    } else {
        prefix_len(payload.len()) + payload.len()
    }
}

/// Stream one RLP string into `out` — the allocation-free counterpart of
/// `RlpItem::bytes(..).encode_into(..)` for codecs that already hold the
/// payload as a slice.
pub fn write_str(out: &mut Vec<u8>, payload: &[u8]) {
    if payload.len() == 1 && payload[0] < 0x80 {
        out.push(payload[0]);
    } else {
        write_prefix(out, 0x80, payload.len());
        out.extend_from_slice(payload);
    }
}

/// Length of a string header for a `payload_len`-byte payload. Only valid
/// when the string does *not* take the single-byte literal form (i.e.
/// `payload_len != 1` or the byte is ≥ 0x80); [`write_str_header`] has the
/// same precondition.
pub fn str_header_len(payload_len: usize) -> usize {
    prefix_len(payload_len)
}

/// Write a string header so the caller can assemble the payload in place
/// (e.g. a marker byte followed by a borrowed value, with no intermediate
/// buffer). See [`str_header_len`] for the single-byte-form precondition.
pub fn write_str_header(out: &mut Vec<u8>, payload_len: usize) {
    write_prefix(out, 0x80, payload_len);
}

/// Length of a list header for a `payload_len`-byte payload.
pub fn list_header_len(payload_len: usize) -> usize {
    prefix_len(payload_len)
}

/// Write a list header; the caller then streams the `payload_len` bytes of
/// already-encoded items.
pub fn write_list_header(out: &mut Vec<u8>, payload_len: usize) {
    write_prefix(out, 0xc0, payload_len);
}

fn be_len(v: usize) -> usize {
    (usize::BITS as usize / 8) - v.leading_zeros() as usize / 8
}

fn write_prefix(out: &mut Vec<u8>, base: u8, payload: usize) {
    if payload <= 55 {
        out.push(base + payload as u8);
    } else {
        let n = be_len(payload);
        out.push(base + 55 + n as u8);
        out.extend_from_slice(&payload.to_be_bytes()[std::mem::size_of::<usize>() - n..]);
    }
}

/// Decode one item from the front of `input`; return it and the remainder.
pub fn decode_partial(input: &[u8]) -> Result<(RlpItem, &[u8]), RlpError> {
    let (&first, rest) = input.split_first().ok_or(RlpError::Truncated)?;
    match first {
        0x00..=0x7f => Ok((RlpItem::Bytes(vec![first]), rest)),
        0x80..=0xb7 => {
            let len = (first - 0x80) as usize;
            let (payload, rest) = split_checked(rest, len)?;
            if len == 1 && payload[0] < 0x80 {
                return Err(RlpError::NonCanonical); // should have been a single byte
            }
            Ok((RlpItem::Bytes(payload.to_vec()), rest))
        }
        0xb8..=0xbf => {
            let len_len = (first - 0xb7) as usize;
            let (len, rest) = read_be_len(rest, len_len)?;
            if len <= 55 {
                return Err(RlpError::NonCanonical); // short string long-form
            }
            let (payload, rest) = split_checked(rest, len)?;
            Ok((RlpItem::Bytes(payload.to_vec()), rest))
        }
        0xc0..=0xf7 => {
            let len = (first - 0xc0) as usize;
            let (payload, rest) = split_checked(rest, len)?;
            Ok((RlpItem::List(decode_list_payload(payload)?), rest))
        }
        0xf8..=0xff => {
            let len_len = (first - 0xf7) as usize;
            let (len, rest) = read_be_len(rest, len_len)?;
            if len <= 55 {
                return Err(RlpError::NonCanonical); // short list long-form
            }
            let (payload, rest) = split_checked(rest, len)?;
            Ok((RlpItem::List(decode_list_payload(payload)?), rest))
        }
    }
}

/// One top-level RLP **list of at most `N` byte strings**, parsed in one
/// pass into a fixed table of payload bounds indexed into the input. The
/// parse allocates nothing, so a page whose header claims millions of
/// items costs no more than `N` of them.
///
/// This is the shape of every MPT node (a 17- or 2-string list): the node
/// keeps the offsets and reads keys, values and digests straight out of
/// its refcounted page instead of copying them through [`RlpItem`].
///
/// Validation is identical to [`decode_partial`]: canonical-form rules are
/// enforced, trailing bytes are rejected, and a nested list inside the
/// payload is a `TypeMismatch` (MPT nodes never contain one). A list of
/// more than `N` items is [`RlpError::TooManyItems`].
#[derive(Debug, Clone, Copy)]
pub struct FlatList<const N: usize> {
    len: usize,
    starts: [usize; N],
    ends: [usize; N],
}

impl<const N: usize> FlatList<N> {
    /// Parse `input`, which must be exactly one list.
    pub fn parse(input: &[u8]) -> Result<Self, RlpError> {
        let (&first, _) = input.split_first().ok_or(RlpError::Truncated)?;
        let (payload_start, payload_len) = match first {
            0xc0..=0xf7 => (1usize, (first - 0xc0) as usize),
            0xf8..=0xff => {
                let len_len = (first - 0xf7) as usize;
                let (len, _) = read_be_len(&input[1..], len_len)?;
                if len <= 55 {
                    return Err(RlpError::NonCanonical); // short list long-form
                }
                (1 + len_len, len)
            }
            _ => return Err(RlpError::TypeMismatch { expected: "list" }),
        };
        let payload_end = payload_start.checked_add(payload_len).ok_or(RlpError::LengthOverflow)?;
        if payload_end > input.len() {
            return Err(RlpError::Truncated);
        }
        if payload_end != input.len() {
            return Err(RlpError::TrailingBytes);
        }

        let mut list = FlatList { len: 0, starts: [0; N], ends: [0; N] };
        let mut pos = payload_start;
        while pos < payload_end {
            if list.len == N {
                return Err(RlpError::TooManyItems);
            }
            let first = input[pos];
            let (start, len) = match first {
                0x00..=0x7f => (pos, 1usize),
                0x80..=0xb7 => {
                    let len = (first - 0x80) as usize;
                    if len == 1 {
                        let b = *input.get(pos + 1).ok_or(RlpError::Truncated)?;
                        if b < 0x80 {
                            return Err(RlpError::NonCanonical); // should be a single byte
                        }
                    }
                    (pos + 1, len)
                }
                0xb8..=0xbf => {
                    let len_len = (first - 0xb7) as usize;
                    let (len, _) = read_be_len(&input[pos + 1..], len_len)?;
                    if len <= 55 {
                        return Err(RlpError::NonCanonical); // short string long-form
                    }
                    (pos + 1 + len_len, len)
                }
                _ => return Err(RlpError::TypeMismatch { expected: "bytes" }),
            };
            let end = start.checked_add(len).ok_or(RlpError::LengthOverflow)?;
            if end > payload_end {
                return Err(RlpError::Truncated);
            }
            list.starts[list.len] = start;
            list.ends[list.len] = end;
            list.len += 1;
            pos = end;
        }
        Ok(list)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Item `i`'s payload bounds in the parsed input.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn range(&self, i: usize) -> std::ops::Range<usize> {
        assert!(i < self.len, "item {i} of a {}-item list", self.len);
        self.starts[i]..self.ends[i]
    }
}

fn decode_list_payload(mut payload: &[u8]) -> Result<Vec<RlpItem>, RlpError> {
    let mut items = Vec::new();
    while !payload.is_empty() {
        let (item, rest) = decode_partial(payload)?;
        items.push(item);
        payload = rest;
    }
    Ok(items)
}

fn split_checked(input: &[u8], len: usize) -> Result<(&[u8], &[u8]), RlpError> {
    if input.len() < len {
        return Err(RlpError::Truncated);
    }
    Ok(input.split_at(len))
}

fn read_be_len(input: &[u8], len_len: usize) -> Result<(usize, &[u8]), RlpError> {
    if len_len > std::mem::size_of::<usize>() {
        return Err(RlpError::LengthOverflow);
    }
    let (len_bytes, rest) = split_checked(input, len_len)?;
    if len_bytes.first() == Some(&0) {
        return Err(RlpError::NonCanonical); // leading zero in length
    }
    let mut len = 0usize;
    for &b in len_bytes {
        len = len.checked_shl(8).ok_or(RlpError::LengthOverflow)? | b as usize;
    }
    Ok((len, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(item: &RlpItem) {
        let enc = item.encode();
        assert_eq!(enc.len(), item.encoded_len(), "encoded_len mismatch");
        assert_eq!(&RlpItem::decode_all(&enc).unwrap(), item);
    }

    #[test]
    fn canonical_vectors_from_ethereum_spec() {
        // ("dog") -> [0x83, 'd', 'o', 'g']
        assert_eq!(RlpItem::bytes(&b"dog"[..]).encode(), vec![0x83, b'd', b'o', b'g']);
        // ("cat","dog") list
        assert_eq!(
            RlpItem::list(vec![RlpItem::bytes(&b"cat"[..]), RlpItem::bytes(&b"dog"[..])]).encode(),
            vec![0xc8, 0x83, b'c', b'a', b't', 0x83, b'd', b'o', b'g']
        );
        // empty string -> 0x80
        assert_eq!(RlpItem::bytes(Vec::new()).encode(), vec![0x80]);
        // empty list -> 0xc0
        assert_eq!(RlpItem::list(Vec::new()).encode(), vec![0xc0]);
        // 0x00 -> itself
        assert_eq!(RlpItem::bytes(vec![0x00]).encode(), vec![0x00]);
        // 0x0f -> itself
        assert_eq!(RlpItem::bytes(vec![0x0f]).encode(), vec![0x0f]);
        // 0x0400 -> [0x82, 0x04, 0x00]
        assert_eq!(RlpItem::uint(1024).encode(), vec![0x82, 0x04, 0x00]);
        // set-theoretic representation of three: [ [], [[]], [ [], [[]] ] ]
        let three = RlpItem::list(vec![
            RlpItem::list(Vec::new()),
            RlpItem::list(vec![RlpItem::list(Vec::new())]),
            RlpItem::list(vec![
                RlpItem::list(Vec::new()),
                RlpItem::list(vec![RlpItem::list(Vec::new())]),
            ]),
        ]);
        assert_eq!(three.encode(), vec![0xc7, 0xc0, 0xc1, 0xc0, 0xc3, 0xc0, 0xc1, 0xc0]);
    }

    #[test]
    fn long_string_and_long_list() {
        let lorem = vec![b'x'; 1024];
        let item = RlpItem::bytes(lorem.clone());
        let enc = item.encode();
        assert_eq!(enc[0], 0xb9); // 0xb7 + 2 length bytes
        assert_eq!(&enc[1..3], &[0x04, 0x00]);
        rt(&item);

        let list = RlpItem::list(vec![RlpItem::bytes(lorem); 3]);
        let enc = list.encode();
        assert_eq!(enc[0], 0xf9); // 0xf7 + 2 length bytes
        rt(&list);
    }

    #[test]
    fn uint_round_trips() {
        for v in [0u64, 1, 127, 128, 255, 256, 1024, u32::MAX as u64, u64::MAX] {
            let item = RlpItem::uint(v);
            rt(&item);
            assert_eq!(item.as_uint().unwrap(), v);
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let tx = RlpItem::list(vec![
            RlpItem::uint(42),                        // nonce
            RlpItem::uint(20_000_000_000),            // gas price
            RlpItem::uint(21_000),                    // gas limit
            RlpItem::bytes(vec![0xaa; 20]),           // to
            RlpItem::uint(1_000_000_000_000_000_000), // value
            RlpItem::bytes(vec![0xde, 0xad, 0xbe]),   // payload
        ]);
        rt(&tx);
    }

    #[test]
    fn rejects_truncated() {
        assert_eq!(RlpItem::decode_all(&[0x83, b'd', b'o']), Err(RlpError::Truncated));
        assert_eq!(RlpItem::decode_all(&[0xb9, 0x04]), Err(RlpError::Truncated));
        assert_eq!(RlpItem::decode_all(&[]), Err(RlpError::Truncated));
    }

    #[test]
    fn rejects_trailing() {
        assert_eq!(RlpItem::decode_all(&[0x80, 0x00]), Err(RlpError::TrailingBytes));
    }

    #[test]
    fn rejects_non_canonical() {
        // single byte < 0x80 wrapped in a string header
        assert_eq!(RlpItem::decode_all(&[0x81, 0x05]), Err(RlpError::NonCanonical));
        // short string with long-form header
        assert_eq!(RlpItem::decode_all(&[0xb8, 0x01, 0x99]), Err(RlpError::NonCanonical));
        // length with leading zero
        assert_eq!(RlpItem::decode_all(&[0xb9, 0x00, 0x38]), Err(RlpError::NonCanonical));
    }

    #[test]
    fn type_mismatch_errors() {
        let b = RlpItem::bytes(vec![1, 2, 3]);
        assert!(matches!(b.as_list(), Err(RlpError::TypeMismatch { .. })));
        let l = RlpItem::list(Vec::new());
        assert!(matches!(l.as_bytes(), Err(RlpError::TypeMismatch { .. })));
    }

    #[test]
    fn uint_rejects_leading_zero_and_overflow() {
        assert_eq!(RlpItem::bytes(vec![0x00, 0x01]).as_uint(), Err(RlpError::NonCanonical));
        assert_eq!(RlpItem::bytes(vec![1; 9]).as_uint(), Err(RlpError::LengthOverflow));
    }

    /// Item `i` of a parsed list, as bytes of `enc`.
    fn payload<'a, const N: usize>(enc: &'a [u8], list: &FlatList<N>, i: usize) -> &'a [u8] {
        &enc[list.range(i)]
    }

    #[test]
    fn flat_list_ranges_match_decoded_items() {
        // A 17-ish string list with every header form: single byte, short
        // string, empty string, long string.
        let items = vec![
            RlpItem::bytes(vec![0x05]),
            RlpItem::bytes(b"short".to_vec()),
            RlpItem::bytes(Vec::new()),
            RlpItem::bytes(vec![0xaa; 60]),
        ];
        let list = RlpItem::list(items.clone());
        let enc = list.encode();
        let parsed = FlatList::<17>::parse(&enc).unwrap();
        assert_eq!(parsed.len(), items.len());
        for (i, item) in items.iter().enumerate() {
            assert_eq!(payload(&enc, &parsed, i), item.as_bytes().unwrap());
        }
        // Empty list → no items.
        assert!(FlatList::<17>::parse(&RlpItem::list(Vec::new()).encode()).unwrap().is_empty());
        // Exactly as many items as the table holds, then one more.
        let four = RlpItem::list(vec![RlpItem::bytes(vec![1u8]); 4]).encode();
        assert_eq!(FlatList::<4>::parse(&four).unwrap().len(), 4);
        assert_eq!(FlatList::<3>::parse(&four).unwrap_err(), RlpError::TooManyItems);
    }

    #[test]
    fn flat_list_ranges_reject_bad_input() {
        type L = FlatList<17>;
        // Not a list.
        assert!(matches!(
            L::parse(&RlpItem::bytes(b"x".to_vec()).encode()),
            Err(RlpError::TypeMismatch { .. })
        ));
        // Nested list inside.
        let nested = RlpItem::list(vec![RlpItem::list(Vec::new())]).encode();
        assert!(matches!(L::parse(&nested), Err(RlpError::TypeMismatch { .. })));
        // Truncated and trailing input.
        let good = RlpItem::list(vec![RlpItem::bytes(b"abc".to_vec())]).encode();
        assert!(matches!(L::parse(&good[..good.len() - 1]), Err(RlpError::Truncated)));
        let mut trailing = good.clone();
        trailing.push(0x00);
        assert!(matches!(L::parse(&trailing), Err(RlpError::TrailingBytes)));
        // Non-canonical single byte wrapped in a string header.
        assert!(matches!(L::parse(&[0xc2, 0x81, 0x05]), Err(RlpError::NonCanonical)));
        // An item whose long-form length runs past the list.
        assert!(matches!(L::parse(&[0xc3, 0xb8, 0x40, 0x00]), Err(RlpError::Truncated)));
        // Items agree with decode_partial on every canonical node-like list.
        let probe = RlpItem::list(vec![RlpItem::bytes(vec![7u8; 56]); 2]).encode();
        assert_eq!(L::parse(&probe).unwrap().len(), 2);
    }

    #[test]
    fn streaming_writers_match_item_encoder() {
        for payload in
            [vec![], vec![0x05], vec![0x80], b"short".to_vec(), vec![7u8; 55], vec![7u8; 300]]
        {
            let via_item = RlpItem::bytes(payload.clone()).encode();
            let mut streamed = Vec::new();
            write_str(&mut streamed, &payload);
            assert_eq!(streamed, via_item);
            assert_eq!(str_encoded_len(&payload), via_item.len());
            // Split header/payload form agrees whenever it is legal.
            if payload.len() != 1 || payload[0] >= 0x80 {
                let mut split = Vec::new();
                write_str_header(&mut split, payload.len());
                assert_eq!(split.len(), str_header_len(payload.len()));
                split.extend_from_slice(&payload);
                assert_eq!(split, via_item);
            }
        }
        // List headers agree with the item encoder on both header forms.
        for n in [0usize, 3, 55, 56, 300] {
            let items = vec![RlpItem::bytes(vec![0x05u8]); n];
            let via_item = RlpItem::list(items).encode();
            let payload = n; // each 0x05 is a single-byte literal
            let mut streamed = Vec::new();
            write_list_header(&mut streamed, payload);
            assert_eq!(streamed.len(), list_header_len(payload));
            streamed.extend(std::iter::repeat_n(0x05u8, n));
            assert_eq!(streamed, via_item);
        }
    }

    #[test]
    fn boundary_55_56_bytes() {
        let s55 = RlpItem::bytes(vec![7u8; 55]);
        assert_eq!(s55.encode()[0], 0x80 + 55);
        rt(&s55);
        let s56 = RlpItem::bytes(vec![7u8; 56]);
        assert_eq!(s56.encode()[0], 0xb8);
        rt(&s56);
    }
}
