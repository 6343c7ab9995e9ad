//! The routing half of an ordered internal page: the child run.
//!
//! POS-Tree and MVMB+ internal pages end in the same run,
//! `varint(count) ‖ (varint(key_len) ‖ max_key ‖ digest)*`, with the max
//! keys strictly ascending. A [`ChildRun`] is that run decoded *in place*:
//! the page `Bytes` and one `(offset, length)` pair per child's key, the
//! digest sitting right after the key. Key order is checked on the raw
//! bytes while parsing. A read that routes one key and follows one digest
//! never builds a refcounted key for the other children; a [`ChildRef`] is
//! built only when a caller asks for one ([`Child::to_ref`]).
//!
//! The same parser answers [`ChildRun::digests`], the store-walk view that
//! keeps nothing of a page but its child digests.

use std::fmt;

use bytes::Bytes;
use siri_crypto::Hash;
use siri_encoding::{varint, ByteReader, ByteWriter, CodecError};

use super::{ChildRef, EMPTY_INTERNAL};
use crate::{IndexError, Result};

/// Fewest bytes one child can take: an empty key's length byte and a digest.
const MIN_CHILD_BYTES: usize = 1 + Hash::LEN;

/// Most slots a decoder reserves before it has parsed them: a page's count
/// field is not trusted to size an allocation.
const MAX_RESERVE: usize = 4096;

/// Slots to reserve for a run claiming `count` items of at least `min_item`
/// bytes each in `remaining` bytes. `None` when the bytes cannot hold them.
pub(crate) fn reservation(count: u64, remaining: usize, min_item: usize) -> Option<usize> {
    let fits = remaining / min_item;
    (count <= fits as u64).then(|| (count as usize).min(MAX_RESERVE))
}

/// A decoded child run: the page and where each child's key lies in it.
#[derive(Clone)]
pub struct ChildRun {
    page: Bytes,
    /// Offset of the run's count prefix; the run ends where the page does.
    start: usize,
    /// Per child: its key's offset in `page` and the key's length.
    slots: Vec<(u32, u32)>,
}

/// What a leaf returns for [`super::OrderedNode::children`].
pub(crate) static NO_CHILDREN: ChildRun =
    ChildRun { page: Bytes::new(), start: 0, slots: Vec::new() };

impl ChildRun {
    /// Encoded length of the run of `children`.
    pub fn encoded_len(children: &[ChildRef]) -> usize {
        varint::len(children.len() as u64)
            + children
                .iter()
                .map(|c| varint::len(c.max_key.len() as u64) + c.max_key.len() + Hash::LEN)
                .sum::<usize>()
    }

    /// Append the run of `children` to `w` — how builders write an internal
    /// page straight from their child list.
    pub fn write(w: &mut ByteWriter, children: &[ChildRef]) {
        w.put_varint(children.len() as u64);
        for c in children {
            w.put_bytes(&c.max_key);
            w.put_raw(c.hash.as_bytes());
        }
    }

    /// The run of `children` on a page of its own (tests and hand-built
    /// nodes; a run of no children encodes, but never decodes).
    pub fn new(children: &[ChildRef]) -> ChildRun {
        let mut w = ByteWriter::with_capacity(Self::encoded_len(children));
        Self::write(&mut w, children);
        let page = Bytes::from(w.into_vec());
        let mut at = varint::len(children.len() as u64);
        let slots = children
            .iter()
            .map(|c| {
                let len = c.max_key.len();
                at += varint::len(len as u64);
                let slot = (at as u32, len as u32);
                at += len + Hash::LEN;
                slot
            })
            .collect();
        ChildRun { page, start: 0, slots }
    }

    /// Decode the run that starts at `start` and ends the page. Zero-copy:
    /// the run keeps `page`. At least one child, keys strictly ascending,
    /// nothing after the last digest.
    pub fn decode(page: &Bytes, start: usize) -> Result<ChildRun> {
        if u32::try_from(page.len()).is_err() {
            return Err(CodecError::BadLength { what: "internal page" }.into());
        }
        let body = page.get(start..).ok_or(CodecError::Truncated)?;
        let slots = parse(body, |off, key, _| ((start + off) as u32, key.len() as u32))?;
        Ok(ChildRun { page: page.clone(), start, slots })
    }

    /// The child digests of the run that is all of `body`, in order — what
    /// a store walk needs of an internal page, read without copying it.
    pub fn digests(body: &[u8]) -> Result<Vec<Hash>> {
        parse(body, |_, _, digest| digest_at(digest, 0))
    }

    /// The page the run was decoded from, whole — the internal node's
    /// [`PageNode::page`](crate::PageNode::page). A run built by
    /// [`ChildRun::new`] is a page of its own.
    pub fn page(&self) -> &Bytes {
        &self.page
    }

    /// The run's encoding: what [`ChildRun::write`] wrote.
    pub fn as_bytes(&self) -> &[u8] {
        &self.page[self.start..]
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Max key of child `i`'s subtree. Panics if `i >= len()`.
    pub fn key(&self, i: usize) -> &[u8] {
        let (off, len) = self.slots[i];
        &self.page[off as usize..(off + len) as usize]
    }

    /// Digest of child `i`. Panics if `i >= len()`.
    pub fn hash(&self, i: usize) -> Hash {
        let (off, len) = self.slots[i];
        digest_at(&self.page, (off + len) as usize)
    }

    /// Child `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<Child<'_>> {
        self.slots.get(i).map(|&slot| Child::at(&self.page, &self.page, slot))
    }

    /// The last child's max key — the run's max key — as a slice of the page.
    pub fn max_key(&self) -> Option<Bytes> {
        self.iter().next_back().map(|c| c.to_ref().max_key)
    }

    /// The slot a key routes to: the first child whose max key is `>= key`,
    /// clamping keys beyond the maximum to the rightmost child.
    #[inline]
    pub fn route(&self, key: &[u8]) -> Result<usize> {
        let last = self.slots.len().checked_sub(1).ok_or(EMPTY_INTERNAL)?;
        let page = &self.page[..];
        let below = |&(off, len): &(u32, u32)| &page[off as usize..(off + len) as usize] < key;
        Ok(self.slots.partition_point(below).min(last))
    }

    /// The children in key order (double-ended).
    pub fn iter(&self) -> Children<'_> {
        Children { page: &self.page, raw: &self.page, slots: self.slots.iter() }
    }
}

impl PartialEq for ChildRun {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for ChildRun {}

impl fmt::Debug for ChildRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter().map(|c| (c.key(), c.hash()))).finish()
    }
}

/// One child of a run (or of a [`ChildRef`]), borrowed: its key and
/// digest are windows of the page, and the page is at hand for
/// [`Child::to_ref`].
#[derive(Clone, Copy)]
pub struct Child<'a> {
    bytes: &'a Bytes,
    /// Where `key` starts in `bytes`.
    off: usize,
    key: &'a [u8],
    digest: &'a [u8],
}

impl<'a> Child<'a> {
    /// The child in `slot` of `raw`, the page `bytes` holds (passed in
    /// dereferenced, so a walk derefs the page once, not per child).
    #[inline]
    fn at(bytes: &'a Bytes, raw: &'a [u8], (off, len): (u32, u32)) -> Self {
        let (off, len) = (off as usize, len as usize);
        let (key, digest) = raw[off..off + len + Hash::LEN].split_at(len);
        Child { bytes, off, key, digest }
    }

    /// Max key of the child's subtree.
    pub fn key(&self) -> &'a [u8] {
        self.key
    }

    pub fn hash(&self) -> Hash {
        digest_at(self.digest, 0)
    }

    /// The child as an owned reference: its key a refcounted slice of the
    /// page.
    pub fn to_ref(&self) -> ChildRef {
        let max_key = self.bytes.slice(self.off..self.off + self.key.len());
        ChildRef { max_key, hash: self.hash() }
    }
}

impl ChildRef {
    /// Borrow as a [`Child`], for code that takes either.
    pub fn as_child(&self) -> Child<'_> {
        let (key, digest) = (&self.max_key[..], &self.hash.as_bytes()[..]);
        Child { bytes: &self.max_key, off: 0, key, digest }
    }
}

/// Iterator over a run's children; see [`ChildRun::iter`].
pub struct Children<'a> {
    page: &'a Bytes,
    raw: &'a [u8],
    slots: std::slice::Iter<'a, (u32, u32)>,
}

impl<'a> Iterator for Children<'a> {
    type Item = Child<'a>;

    #[inline]
    fn next(&mut self) -> Option<Child<'a>> {
        self.slots.next().map(|&slot| Child::at(self.page, self.raw, slot))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }
}

impl DoubleEndedIterator for Children<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.slots.next_back().map(|&slot| Child::at(self.page, self.raw, slot))
    }
}

impl ExactSizeIterator for Children<'_> {}

fn digest_at(page: &[u8], at: usize) -> Hash {
    let mut digest = [0u8; Hash::LEN];
    digest.copy_from_slice(&page[at..at + Hash::LEN]);
    Hash::from_bytes(digest)
}

/// The one parser of a child run that is all of `body`: `each(key_offset,
/// key, digest)` per child, offsets relative to `body`. The count must be
/// at least one and fit the bytes, keys must strictly ascend, and nothing
/// may follow the last digest.
fn parse<T>(body: &[u8], mut each: impl FnMut(usize, &[u8], &[u8]) -> T) -> Result<Vec<T>> {
    let mut r = ByteReader::new(body);
    let count = r.get_varint()?;
    let reserve = reservation(count, r.remaining(), MIN_CHILD_BYTES)
        .filter(|_| count > 0)
        .ok_or(CodecError::BadLength { what: "child count" })?;
    let mut out = Vec::with_capacity(reserve);
    let mut prev: Option<&[u8]> = None;
    for _ in 0..count {
        let key = r.get_bytes()?;
        if prev.is_some_and(|p| p >= key) {
            return Err(IndexError::CorruptStructure("unsorted internal node"));
        }
        let off = r.offset() - key.len();
        out.push(each(off, key, r.get_raw(Hash::LEN)?));
        prev = Some(key);
    }
    r.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child(key: &str, seed: u8) -> ChildRef {
        ChildRef {
            max_key: Bytes::copy_from_slice(key.as_bytes()),
            hash: Hash::from_bytes([seed; Hash::LEN]),
        }
    }

    fn run_of(children: &[ChildRef]) -> Bytes {
        let mut w = ByteWriter::new();
        ChildRun::write(&mut w, children);
        Bytes::from(w.into_vec())
    }

    #[test]
    fn new_and_decode_agree_on_every_accessor() {
        let refs = [child("", 1), child("f", 2), child("m", 3), child("tt", 4)];
        let built = ChildRun::new(&refs);
        let mut page = vec![0xEE, 0xEE]; // a header in front of the run
        page.extend_from_slice(built.as_bytes());
        let decoded = ChildRun::decode(&Bytes::from(page), 2).unwrap();
        assert_eq!(built, decoded);
        assert_eq!(built.as_bytes().len(), ChildRun::encoded_len(&refs));
        for run in [&built, &decoded] {
            assert_eq!(run.len(), refs.len());
            let got: Vec<ChildRef> = run.iter().map(|c| c.to_ref()).collect();
            assert_eq!(got, refs);
            let back: Vec<ChildRef> = run.iter().rev().map(|c| c.to_ref()).collect();
            assert!(back.iter().eq(refs.iter().rev()));
            for (i, r) in refs.iter().enumerate() {
                assert_eq!((run.key(i), run.hash(i)), (&r.max_key[..], r.hash));
                assert_eq!(run.get(i).unwrap().to_ref(), *r);
                assert_eq!(r.as_child().to_ref(), *r);
            }
            assert!(run.get(refs.len()).is_none());
            assert_eq!(run.max_key().unwrap().as_ref(), b"tt");
            assert_eq!(
                ChildRun::digests(run.as_bytes()).unwrap(),
                [1, 2, 3, 4].map(|s| refs[s - 1].hash)
            );
        }
    }

    #[test]
    fn routes_a_boundary_key_left_and_clamps_past_the_max() {
        let run = ChildRun::new(&[child("f", 1), child("m", 2)]);
        assert_eq!(run.route(b"f"), Ok(0), "boundary key belongs left");
        assert_eq!(run.route(b"g"), Ok(1));
        assert_eq!(run.route(b"zzz"), Ok(1));
    }

    #[test]
    fn rejects_malformed_runs() {
        let ok = run_of(&[child("a", 1), child("b", 2)]);
        assert!(ChildRun::decode(&ok, 0).is_ok());
        for cut in 0..ok.len() {
            assert!(ChildRun::decode(&ok.slice(..cut), 0).is_err(), "truncated at {cut}");
        }
        let mut long = ok.to_vec();
        long.push(0);
        assert_eq!(
            ChildRun::decode(&Bytes::from(long), 0).err(),
            Some(CodecError::TrailingBytes.into())
        );
        for bad in [
            run_of(&[child("b", 1), child("a", 2)]),
            run_of(&[child("a", 1), child("a", 2)]),
            run_of(&[]),
        ] {
            assert!(ChildRun::decode(&bad, 0).is_err());
            assert!(ChildRun::digests(&bad).is_err());
        }
        let mut huge = vec![0xFF, 0xFF, 0x03]; // count 65535 in 66 bytes
        huge.extend_from_slice(&[0; 66]);
        assert!(ChildRun::decode(&Bytes::from(huge), 0).is_err());
        assert!(ChildRun::decode(&ok, ok.len() + 1).is_err());
    }
}
