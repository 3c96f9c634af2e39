//! The `tagdist-dataset bin v1` on-disk binary columnar format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "#tagdist-dataset bin v1\n"          ASCII magic line
//! u32 country_count
//! u32 video_count
//! u32 tag_count
//! u32 section_count                    12 in v1
//! section table, one 28-byte entry per section:
//!     u32 id                           SEC_* constant, ascending
//!     u64 offset                       from start of payload region
//!     u64 len                          section byte length
//!     u64 checksum                     FNV-1a 64 over the bytes
//! payload: the section bytes, concatenated in table order
//! ```
//!
//! | id | section          | contents                                |
//! |----|------------------|-----------------------------------------|
//! | 1  | key offsets      | `(n+1) × u32` into section 2            |
//! | 2  | key bytes        | UTF-8 pool of video keys                |
//! | 3  | title offsets    | `(n+1) × u32` into section 4            |
//! | 4  | title bytes      | UTF-8 pool of titles                    |
//! | 5  | total views      | `n × u64`                               |
//! | 6  | tag spine        | `(n+1) × u32` CSR rows into section 7   |
//! | 7  | tag ids          | flat `u32` per-video tag lists          |
//! | 8  | popularity kind  | `n × u8` `POP_*` sentinels              |
//! | 9  | pop offsets      | `(n+1) × u32` into section 10           |
//! | 10 | pop bytes        | raw popularity payloads                 |
//! | 11 | tag-name offsets | `(t+1) × u32` into section 12           |
//! | 12 | tag-name bytes   | UTF-8 pool of interned tag names        |
//!
//! The magic shares the `#tagdist-dataset ` prefix with the TSV header
//! so one 24-byte sniff distinguishes the two (see
//! [`format`](crate::format)). Encoding is deterministic — the same
//! dataset always produces byte-identical files — because every column
//! is emitted in dense id order and the section table is fixed.
//!
//! Decoding has one validation path with two exits.
//! [`decode_borrowed`] walks the image once, verifies every section
//! checksum and every cross-section invariant (monotone offsets,
//! UTF-8 boundaries, tag-id bounds, popularity shapes), and returns a
//! [`ColumnarView`] whose sections *borrow* the input — zero copies,
//! which over an [`Mmap`](crate::mmap::Mmap) makes loading a
//! page-cache-speed operation. [`decode`] is `decode_borrowed` +
//! [`ColumnarView::to_owned`]: one allocation per section
//! (`chunks_exact` + `from_le_bytes`; no `unsafe`), so the owned
//! allocation count is O(sections), never O(videos). Because sections
//! are concatenated without padding, numeric sections are unaligned in
//! the file; the borrowed view keeps them as `&[u8]` and decodes each
//! access with `from_le_bytes` instead of transmuting.

use std::io::{Read, Write};

use crate::columnar::{ColumnarDataset, ColumnarRead, POP_CORRUPT, POP_MISSING, POP_VALID};
use crate::error::DatasetError;
use crate::tag::TagId;

/// First bytes of every binary dataset file.
pub const MAGIC: &[u8] = b"#tagdist-dataset bin v1\n";

/// Section ids, in file order.
const SECTION_IDS: [u32; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash, the section checksum function.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn format_err(message: impl Into<String>) -> DatasetError {
    DatasetError::Format {
        message: message.into(),
    }
}

fn u32s_to_bytes(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn u64s_to_bytes(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Serializes a columnar dataset to the binary format.
///
/// Deterministic: the same dataset produces byte-identical output.
///
/// # Errors
///
/// Propagates any I/O failure from `writer`.
pub fn write<W: Write>(dataset: &ColumnarDataset, mut writer: W) -> Result<(), DatasetError> {
    let sections: [Vec<u8>; 12] = [
        u32s_to_bytes(&dataset.key_offsets),
        dataset.key_bytes.as_bytes().to_vec(),
        u32s_to_bytes(&dataset.title_offsets),
        dataset.title_bytes.as_bytes().to_vec(),
        u64s_to_bytes(&dataset.total_views),
        u32s_to_bytes(&dataset.tag_rows),
        u32s_to_bytes(&dataset.tag_ids),
        dataset.pop_kind.clone(),
        u32s_to_bytes(&dataset.pop_offsets),
        dataset.pop_bytes.clone(),
        u32s_to_bytes(&dataset.tagname_offsets),
        dataset.tagname_bytes.as_bytes().to_vec(),
    ];

    writer.write_all(MAGIC)?;
    writer.write_all(&dataset.country_count.to_le_bytes())?;
    let video_count = u32::try_from(dataset.len())
        .map_err(|_| format_err(format!("video count {} overflows u32", dataset.len())))?;
    writer.write_all(&video_count.to_le_bytes())?;
    let tag_count = u32::try_from(dataset.tag_count())
        .map_err(|_| format_err(format!("tag count {} overflows u32", dataset.tag_count())))?;
    writer.write_all(&tag_count.to_le_bytes())?;
    writer.write_all(&u32::try_from(SECTION_IDS.len()).unwrap_or(0).to_le_bytes())?;

    let mut offset = 0u64;
    for (id, bytes) in SECTION_IDS.iter().zip(&sections) {
        writer.write_all(&id.to_le_bytes())?;
        writer.write_all(&offset.to_le_bytes())?;
        writer.write_all(&(bytes.len() as u64).to_le_bytes())?;
        writer.write_all(&fnv1a(bytes).to_le_bytes())?;
        offset += bytes.len() as u64;
    }
    for bytes in &sections {
        writer.write_all(bytes)?;
    }
    Ok(())
}

/// A little-endian reader over the header region.
struct Header<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Header<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DatasetError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format_err(format!("truncated header: missing {what}")))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self, what: &str) -> Result<u32, DatasetError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, DatasetError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// One parsed section-table entry.
struct Section {
    id: u32,
    offset: u64,
    len: u64,
    checksum: u64,
}

/// Reads the `idx`-th little-endian `u32` of a raw section slice.
///
/// Sections are concatenated without padding, so numeric sections are
/// in general *unaligned* — borrowed columns therefore stay `&[u8]`
/// and every access decodes through `from_le_bytes` (free on the
/// little-endian targets this runs on; no transmute, no `unsafe`).
#[inline]
fn u32_at(bytes: &[u8], idx: usize) -> u32 {
    let o = idx * 4;
    u32::from_le_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]])
}

/// Reads the `idx`-th little-endian `u64` of a raw section slice.
#[inline]
fn u64_at(bytes: &[u8], idx: usize) -> u64 {
    let o = idx * 8;
    u64::from_le_bytes([
        bytes[o],
        bytes[o + 1],
        bytes[o + 2],
        bytes[o + 3],
        bytes[o + 4],
        bytes[o + 5],
        bytes[o + 6],
        bytes[o + 7],
    ])
}

/// A fully *validated* columnar dataset whose sections are borrowed
/// from the undecoded file image — the zero-copy counterpart of
/// [`ColumnarDataset`].
///
/// Produced by [`decode_borrowed`], typically over a memory-mapped
/// file ([`Mmap`](crate::mmap::Mmap)): headers, checksums and every
/// column invariant are verified up front exactly as for the owned
/// decode, but the section bytes themselves stay where they are.
/// String pools are held as checked `&str`; fixed-width integer
/// sections stay raw `&[u8]` (they are unaligned in the file) and are
/// decoded per access with `from_le_bytes`.
///
/// Implements [`ColumnarRead`], so
/// [`filter_columnar`](crate::filter::filter_columnar) and friends
/// consume a mapped file without a single per-video copy;
/// [`to_owned`](ColumnarView::to_owned) materializes a
/// [`ColumnarDataset`] when ownership is needed.
#[derive(Debug, Clone, Copy)]
pub struct ColumnarView<'a> {
    country_count: u32,
    video_count: usize,
    tag_count: usize,
    key_offsets: &'a [u8],
    key_bytes: &'a str,
    title_offsets: &'a [u8],
    title_bytes: &'a str,
    total_views: &'a [u8],
    tag_rows: &'a [u8],
    tag_ids: &'a [u8],
    pop_kind: &'a [u8],
    pop_offsets: &'a [u8],
    pop_bytes: &'a [u8],
    tagname_offsets: &'a [u8],
    tagname_bytes: &'a str,
}

impl ColumnarView<'_> {
    /// Copies every borrowed section into an owned [`ColumnarDataset`]
    /// (one allocation per section, no re-validation — the view's
    /// invariants carry over).
    #[must_use]
    pub fn to_owned(&self) -> ColumnarDataset {
        fn le_u32s(bytes: &[u8]) -> Vec<u32> {
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect()
        }
        fn le_u64s(bytes: &[u8]) -> Vec<u64> {
            bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
                .collect()
        }
        ColumnarDataset {
            country_count: self.country_count,
            key_offsets: le_u32s(self.key_offsets),
            key_bytes: self.key_bytes.to_owned(),
            title_offsets: le_u32s(self.title_offsets),
            title_bytes: self.title_bytes.to_owned(),
            total_views: le_u64s(self.total_views),
            tag_rows: le_u32s(self.tag_rows),
            tag_ids: le_u32s(self.tag_ids),
            pop_kind: self.pop_kind.to_vec(),
            pop_offsets: le_u32s(self.pop_offsets),
            pop_bytes: self.pop_bytes.to_vec(),
            tagname_offsets: le_u32s(self.tagname_offsets),
            tagname_bytes: self.tagname_bytes.to_owned(),
        }
    }

    /// Slices a string pool by the offsets stored in a raw offset
    /// section (offsets pre-validated: monotone, in range, on char
    /// boundaries).
    #[inline]
    fn pool_str<'a>(pool: &'a str, offsets: &[u8], i: usize) -> &'a str {
        &pool[u32_at(offsets, i) as usize..u32_at(offsets, i + 1) as usize]
    }
}

impl ColumnarRead for ColumnarView<'_> {
    fn len(&self) -> usize {
        self.video_count
    }

    fn country_count(&self) -> usize {
        self.country_count as usize
    }

    fn tag_count(&self) -> usize {
        self.tag_count
    }

    fn key(&self, i: usize) -> &str {
        Self::pool_str(self.key_bytes, self.key_offsets, i)
    }

    fn title(&self, i: usize) -> &str {
        Self::pool_str(self.title_bytes, self.title_offsets, i)
    }

    fn total_views(&self, i: usize) -> u64 {
        u64_at(self.total_views, i)
    }

    fn video_tags(&self, i: usize) -> impl ExactSizeIterator<Item = TagId> + '_ {
        let row = u32_at(self.tag_rows, i) as usize..u32_at(self.tag_rows, i + 1) as usize;
        row.map(|k| TagId::from_index(u32_at(self.tag_ids, k) as usize))
    }

    fn pop_kind(&self, i: usize) -> u8 {
        self.pop_kind[i]
    }

    fn pop_payload(&self, i: usize) -> &[u8] {
        &self.pop_bytes
            [u32_at(self.pop_offsets, i) as usize..u32_at(self.pop_offsets, i + 1) as usize]
    }

    fn tag_name(&self, t: usize) -> &str {
        Self::pool_str(self.tagname_bytes, self.tagname_offsets, t)
    }
}

/// A file image split into its checksum-verified section slices.
struct SplitImage<'a> {
    country_count: u32,
    video_count: usize,
    tag_count: usize,
    slices: [&'a [u8]; 12],
}

/// Splits a file image into header counts and section slices.
///
/// This is the shared front half of [`decode_borrowed`] and the
/// convert fast path: magic, counts, table order, offset contiguity,
/// truncation, per-section FNV-1a checksums and trailing-garbage are
/// all enforced here.
fn split_sections(buf: &[u8]) -> Result<SplitImage<'_>, DatasetError> {
    let body = buf
        .strip_prefix(MAGIC)
        .ok_or_else(|| format_err("bad magic: not a `#tagdist-dataset bin v1` file"))?;
    let mut h = Header { buf: body, pos: 0 };
    let country_count = h.u32("country count")?;
    let video_count = h.u32("video count")? as usize;
    let tag_count = h.u32("tag count")? as usize;
    let section_count = h.u32("section count")? as usize;
    if section_count != SECTION_IDS.len() {
        return Err(format_err(format!(
            "expected {} sections, header declares {section_count}",
            SECTION_IDS.len()
        )));
    }

    let mut sections = Vec::with_capacity(section_count);
    for expected_id in SECTION_IDS {
        let id = h.u32("section id")?;
        if id != expected_id {
            return Err(format_err(format!(
                "section table out of order: expected id {expected_id}, found {id}"
            )));
        }
        sections.push(Section {
            id,
            offset: h.u64("section offset")?,
            len: h.u64("section length")?,
            checksum: h.u64("section checksum")?,
        });
    }

    let payload = &body[h.pos..];
    let mut slices: [&[u8]; 12] = [&[]; 12];
    let mut expected_offset = 0u64;
    for (slot, s) in slices.iter_mut().zip(&sections) {
        if s.offset != expected_offset {
            return Err(format_err(format!(
                "section {}: offset {} does not follow the previous section (expected {})",
                s.id, s.offset, expected_offset
            )));
        }
        let start = usize::try_from(s.offset)
            .map_err(|_| format_err(format!("section {}: offset overflows usize", s.id)))?;
        let end = usize::try_from(s.offset + s.len)
            .ok()
            .filter(|&e| e <= payload.len())
            .ok_or_else(|| {
                format_err(format!(
                    "section {}: truncated payload ({} bytes needed, {} available)",
                    s.id,
                    s.offset + s.len,
                    payload.len()
                ))
            })?;
        let bytes = &payload[start..end];
        let actual = fnv1a(bytes);
        if actual != s.checksum {
            return Err(DatasetError::Checksum {
                section: s.id,
                expected: s.checksum,
                actual,
            });
        }
        *slot = bytes;
        expected_offset += s.len;
    }
    if usize::try_from(expected_offset).ok() != Some(payload.len()) {
        return Err(format_err(format!(
            "{} trailing payload byte(s) after the last section",
            payload.len() as u64 - expected_offset
        )));
    }
    Ok(SplitImage {
        country_count,
        video_count,
        tag_count,
        slices,
    })
}

/// Requires an integer section's byte length to be a whole number of
/// `width`-byte entries.
fn check_stride(bytes: &[u8], width: usize, what: &str) -> Result<(), DatasetError> {
    if bytes.len() % width != 0 {
        return Err(format_err(format!(
            "section {what}: length {} is not a multiple of {width}",
            bytes.len()
        )));
    }
    Ok(())
}

/// Deserializes a columnar dataset *in place*: every section stays a
/// borrow of `buf`, but all validation the owned [`decode`] performs —
/// checksums, offset monotonicity, UTF-8, tag-id bounds, popularity
/// shapes — runs up front, so the returned view's accessors never
/// re-check. This is the zero-copy load path for memory-mapped files.
///
/// # Errors
///
/// * [`DatasetError::Format`] on bad magic, a truncated header or
///   payload, an out-of-order section table, or any column invariant
///   violation.
/// * [`DatasetError::Checksum`] when a section's recorded FNV-1a hash
///   does not match its bytes.
pub fn decode_borrowed(buf: &[u8]) -> Result<ColumnarView<'_>, DatasetError> {
    let SplitImage {
        country_count,
        video_count,
        tag_count,
        slices,
    } = split_sections(buf)?;

    check_stride(slices[0], 4, "key offsets")?;
    let key_bytes =
        std::str::from_utf8(slices[1]).map_err(|_| format_err("key pool is not valid UTF-8"))?;
    check_stride(slices[2], 4, "title offsets")?;
    let title_bytes =
        std::str::from_utf8(slices[3]).map_err(|_| format_err("title pool is not valid UTF-8"))?;
    check_stride(slices[4], 8, "total views")?;
    check_stride(slices[5], 4, "tag spine")?;
    check_stride(slices[6], 4, "tag ids")?;
    check_stride(slices[8], 4, "pop offsets")?;
    check_stride(slices[10], 4, "tag-name offsets")?;
    let tagname_bytes = std::str::from_utf8(slices[11])
        .map_err(|_| format_err("tag-name pool is not valid UTF-8"))?;

    let view = ColumnarView {
        country_count,
        video_count,
        tag_count,
        key_offsets: slices[0],
        key_bytes,
        title_offsets: slices[2],
        title_bytes,
        total_views: slices[4],
        tag_rows: slices[5],
        tag_ids: slices[6],
        pop_kind: slices[7],
        pop_offsets: slices[8],
        pop_bytes: slices[9],
        tagname_offsets: slices[10],
        tagname_bytes,
    };

    check_offsets_raw(
        view.key_offsets,
        video_count,
        key_bytes.len(),
        "key offsets",
    )?;
    check_boundaries_raw(view.key_offsets, key_bytes, "key offsets")?;
    check_offsets_raw(
        view.title_offsets,
        video_count,
        title_bytes.len(),
        "title offsets",
    )?;
    check_boundaries_raw(view.title_offsets, title_bytes, "title offsets")?;
    if view.total_views.len() / 8 != video_count {
        return Err(format_err(format!(
            "total views: {} entries for {video_count} video(s)",
            view.total_views.len() / 8
        )));
    }
    check_offsets_raw(
        view.tag_rows,
        video_count,
        view.tag_ids.len() / 4,
        "tag spine",
    )?;
    for k in 0..view.tag_ids.len() / 4 {
        let t = u32_at(view.tag_ids, k);
        if t as usize >= tag_count {
            return Err(format_err(format!(
                "tag id {t} out of range (tag count {tag_count})"
            )));
        }
    }
    if view.pop_kind.len() != video_count {
        return Err(format_err(format!(
            "popularity kinds: {} entries for {video_count} video(s)",
            view.pop_kind.len()
        )));
    }
    check_offsets_raw(
        view.pop_offsets,
        video_count,
        view.pop_bytes.len(),
        "pop offsets",
    )?;
    for (i, &kind) in view.pop_kind.iter().enumerate() {
        let start = u32_at(view.pop_offsets, i);
        let len = (u32_at(view.pop_offsets, i + 1) - start) as usize;
        match kind {
            POP_MISSING if len != 0 => {
                return Err(format_err(format!(
                    "video {i}: missing popularity carries {len} payload byte(s)"
                )));
            }
            POP_VALID => {
                if len != country_count as usize {
                    return Err(format_err(format!(
                        "video {i}: valid popularity has {len} byte(s), expected {country_count}"
                    )));
                }
                let payload = &view.pop_bytes[start as usize..start as usize + len];
                if let Some(&bad) = payload.iter().find(|&&b| b > 61) {
                    return Err(format_err(format!(
                        "video {i}: valid popularity intensity {bad} exceeds 61"
                    )));
                }
            }
            POP_MISSING | POP_CORRUPT => {}
            other => {
                return Err(format_err(format!(
                    "video {i}: unknown popularity kind {other}"
                )));
            }
        }
    }
    check_offsets_raw(
        view.tagname_offsets,
        tag_count,
        tagname_bytes.len(),
        "tag-name offsets",
    )?;
    check_boundaries_raw(view.tagname_offsets, tagname_bytes, "tag-name offsets")?;

    Ok(view)
}

/// Verifies that `buf` is a well-formed `bin v1` image — the same
/// validation as [`decode_borrowed`], discarding the view. Used by the
/// convert fast path to certify an input before copying it through
/// unchanged.
///
/// # Errors
///
/// As for [`decode_borrowed`].
pub fn verify(buf: &[u8]) -> Result<(), DatasetError> {
    decode_borrowed(buf).map(|_| ())
}

/// Deserializes a columnar dataset from a full in-memory image.
///
/// Implemented as [`decode_borrowed`] + [`ColumnarView::to_owned`]:
/// one validation path serves both modes, and the owned copy stays at
/// O(sections) allocations.
///
/// # Errors
///
/// * [`DatasetError::Format`] on bad magic, a truncated header or
///   payload, an out-of-order section table, or any column invariant
///   violation.
/// * [`DatasetError::Checksum`] when a section's recorded FNV-1a hash
///   does not match its bytes.
pub fn decode(buf: &[u8]) -> Result<ColumnarDataset, DatasetError> {
    decode_borrowed(buf).map(|view| view.to_owned())
}

/// Deserializes from a reader (one `read_to_end` then [`decode`]).
///
/// # Errors
///
/// As for [`decode`], plus [`DatasetError::Io`] on read failure.
pub fn read<R: Read>(mut reader: R) -> Result<ColumnarDataset, DatasetError> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    decode(&buf)
}

/// Validates a raw LE `u32` offset column: `count + 1` entries,
/// monotone, starting at 0 and ending at the pool length. Operates on
/// the undecoded section bytes so the borrowed mode never materializes
/// a `Vec`.
fn check_offsets_raw(
    offsets: &[u8],
    count: usize,
    pool_len: usize,
    what: &str,
) -> Result<(), DatasetError> {
    let entries = offsets.len() / 4;
    if entries != count + 1 {
        return Err(format_err(format!(
            "{what}: {entries} entries for {count} row(s) (need {})",
            count + 1
        )));
    }
    if u32_at(offsets, 0) != 0 {
        return Err(format_err(format!("{what}: first offset is not 0")));
    }
    let mut prev = 0u32;
    for i in 1..entries {
        let o = u32_at(offsets, i);
        if o < prev {
            return Err(format_err(format!("{what}: offsets are not monotone")));
        }
        prev = o;
    }
    if prev as usize != pool_len {
        return Err(format_err(format!(
            "{what}: last offset does not match the pool length {pool_len}"
        )));
    }
    Ok(())
}

/// Validates that every string-pool offset falls on a UTF-8 character
/// boundary, so accessors can slice without panicking.
fn check_boundaries_raw(offsets: &[u8], pool: &str, what: &str) -> Result<(), DatasetError> {
    for i in 0..offsets.len() / 4 {
        let o = u32_at(offsets, i);
        if !pool.is_char_boundary(o as usize) {
            return Err(format_err(format!(
                "{what}: offset {o} splits a UTF-8 character"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::ColumnarDataset;
    use crate::dataset::DatasetBuilder;
    use crate::record::RawPopularity;
    use crate::Dataset;

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new(3);
        b.push_video_titled(
            "vid,weird\tkey",
            "Ünïcödé title",
            123,
            &["pop", "hip hop", "a,b"],
            RawPopularity::decode(vec![61, 0, 7], 3),
        );
        b.push_video("plain", 0, &[], RawPopularity::Missing);
        b.push_video_titled(
            "corrupt",
            "c",
            9,
            &["x", "pop"],
            RawPopularity::decode(vec![1, 2], 3),
        );
        b.build()
    }

    fn encode(d: &Dataset) -> Vec<u8> {
        let mut buf = Vec::new();
        write(&ColumnarDataset::from_dataset(d).unwrap(), &mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trips_byte_exactly() {
        let d = sample();
        let c = ColumnarDataset::from_dataset(&d).unwrap();
        let mut buf = Vec::new();
        write(&c, &mut buf).unwrap();
        let r = decode(&buf).unwrap();
        assert_eq!(r, c);
        // Re-encode of the decoded dataset reproduces the bytes.
        let mut again = Vec::new();
        write(&r, &mut again).unwrap();
        assert_eq!(buf, again);
    }

    #[test]
    fn encode_is_deterministic() {
        let d = sample();
        assert_eq!(encode(&d), encode(&d));
    }

    #[test]
    fn magic_shares_the_sniffable_prefix() {
        assert!(MAGIC.starts_with(b"#tagdist-dataset "));
        let buf = encode(&sample());
        assert!(buf.starts_with(MAGIC));
    }

    #[test]
    fn rejects_bad_magic() {
        let err = decode(b"#tagdist-dataset v1 countries=3\n").unwrap_err();
        assert!(matches!(err, DatasetError::Format { .. }), "{err}");
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let buf = encode(&sample());
        // Chopping the file anywhere must produce an error, never a
        // panic or a silently short dataset.
        for cut in 0..buf.len() {
            let err = decode(&buf[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    DatasetError::Format { .. } | DatasetError::Checksum { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn detects_payload_corruption_via_checksum() {
        let mut buf = encode(&sample());
        // Flip a byte in the middle of the payload (past the header).
        let tamper_at = buf.len() - 4;
        buf[tamper_at] ^= 0xff;
        let err = decode(&buf).unwrap_err();
        assert!(matches!(err, DatasetError::Checksum { .. }), "{err}");
        assert!(err.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut buf = encode(&sample());
        buf.extend_from_slice(b"junk");
        let err = decode(&buf).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_tag_ids() {
        let d = sample();
        let mut c = ColumnarDataset::from_dataset(&d).unwrap();
        if let Some(first) = c.tag_ids.first_mut() {
            *first = 10_000;
        }
        let mut buf = Vec::new();
        write(&c, &mut buf).unwrap();
        let err = decode(&buf).unwrap_err();
        assert!(err.to_string().contains("tag id"), "{err}");
    }

    #[test]
    fn rejects_invalid_valid_popularity() {
        let d = sample();
        let mut c = ColumnarDataset::from_dataset(&d).unwrap();
        // Claim the corrupt row (wrong length) is valid.
        c.pop_kind[2] = POP_VALID;
        let mut buf = Vec::new();
        write(&c, &mut buf).unwrap();
        let err = decode(&buf).unwrap_err();
        assert!(err.to_string().contains("valid popularity"), "{err}");
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn empty_dataset_round_trips() {
        let d = DatasetBuilder::new(60).build();
        let buf = encode(&d);
        let r = decode(&buf).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.country_count(), 60);
        assert_eq!(r.tag_count(), 0);
    }
}
