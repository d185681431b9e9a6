//! Single-buffer index **snapshots**: the whole engine state — record
//! permutation, key columns, slice-tree skeleton, and every sealed arena —
//! serialized into one versioned, checksummed, 8-byte-aligned buffer, and
//! revived from it with the sealed columns **zero-copy** (every reloaded
//! [`SealedRegion`] borrows the one snapshot buffer; no per-column
//! allocation).
//!
//! The point (see ROADMAP "Persistent, ABI-stable index snapshots"): QUASII
//! pays its build cost incrementally through queries, so a restart used to
//! throw that investment away. [`Quasii::write_snapshot`] captures the
//! converged investment; [`Quasii::from_snapshot`] restores an engine that
//! answers every query **byte-identically** (ids, stats, record
//! permutation) to the writer — the warm-start contract `tests/persist.rs`
//! enforces property-based.
//!
//! # Buffer layout (format version 1)
//!
//! All scalars little-endian; every section a multiple of 8 bytes, so each
//! section (and in particular every region blob) starts 8-aligned. The
//! fixed 32-byte prefix:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  "QSIISNAP"
//!      8     4  format version (u32, currently 1)
//!     12     4  dimensionality D (u32)
//!     16     8  FNV-1a 64 checksum of bytes[24..]
//!     24     8  total buffer length in bytes
//! ```
//!
//! followed by the engine state, sequentially:
//!
//! ```text
//! u64 n                      record count
//! u64 flags                  bit 0 initialized (always 1), bit 1 seal_dirty_all
//! u64 ×5                     config: tau, assign_by (0|1|2), max_artificial_depth,
//!                            threads, seal (0|1)
//! u64 ×10                    QuasiiStats (deterministic work counters)
//! u64 ×3                     SealStats (lifecycle counters)
//! u64                        seal_stamp
//! f64 ×2D                    ext_low, ext_high (query extension amounts)
//! f64 ×2D                    data_bounds lo, hi
//! u64 + pairs                seal-dirty spans: count, then (lo, hi) each
//! n × (u64 + 2D f64)         records in permuted order: id, mbb lo, mbb hi
//! u64 [+ 2n f64]             key columns: present flag (1 iff n > 0), then
//!                            keys[n], his[n]
//! u64 + tree                 slice-tree skeleton: root count, then pre-order
//!                            nodes (level, begin, end, flags[refined,
//!                            keys_fresh], cut_lo, cut_hi, key_lo, bbox lo/hi,
//!                            child count, children…)
//! u64 + table                sealed regions: count, then per region
//!                            (begin, end, blob offset, blob length)
//! blobs                      region blobs, back-to-back, 8-aligned, in the
//!                            position-independent layout of `crate::seal`
//! ```
//!
//! # Versioning policy
//!
//! The format version is bumped on **any** layout change — there are no
//! minor/compatible revisions, because the sealed columns are consumed
//! zero-copy and a silent misread would corrupt query results rather than
//! fail loudly. A reader accepts exactly [`FORMAT_VERSION`]; anything else
//! is [`SnapshotError::WrongVersion`], and callers re-crack from data
//! instead. Scalars are defined little-endian: big-endian hosts get
//! [`SnapshotError::Unsupported`] from both `write` and `load` (live
//! indexing is unaffected — only the persistent form is LE-pinned).
//!
//! # Totality
//!
//! `load` never panics on malformed input: length, magic, version,
//! dimensionality and checksum are checked up front, every subsequent read
//! is bounds-checked, the slice tree is re-validated to exactly partition
//! the dataset (which bounds recursion at `D` and every index at `n`), and
//! each region blob re-runs `SealedRegion::from_blob`'s structural checks.

use crate::config::AssignBy;
use crate::engine::{Env, Runtime};
use crate::keys::KeyColumn;
use crate::seal::SealedRegion;
use crate::slice::Slice;
use crate::{config, Quasii, QuasiiConfig, QuasiiStats, SealStats};
use quasii_common::geom::{Aabb, Record};
use quasii_common::snapshot::SnapshotError;
use std::sync::Arc;

/// First 8 bytes of every engine snapshot.
pub const MAGIC: [u8; 8] = *b"QSIISNAP";
/// The one format version this build writes and accepts (see the module
/// docs for the bump-on-any-change policy).
pub const FORMAT_VERSION: u32 = 1;

/// Byte offset where the checksum's coverage starts (everything after the
/// magic/version/dims/checksum words — the total length is covered).
const CHECKSUM_FROM: usize = 24;

/// FNV-1a 64-bit over `bytes` — small, dependency-free, and plenty to catch
/// torn writes and bit rot (this is an integrity check, not an
/// authenticity one). Public so companion formats (the shard manifest)
/// share the exact same checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

/// Guarantees the on-disk format: little-endian scalars. The sealed read
/// path casts columns zero-copy, so a BE host cannot read (or produce) the
/// LE format without a byte-swapping pass this reproduction doesn't carry.
fn require_little_endian() -> Result<(), SnapshotError> {
    if cfg!(target_endian = "big") {
        return Err(SnapshotError::Unsupported(
            "big-endian hosts (the snapshot format is little-endian, consumed zero-copy)",
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Aligned byte storage
// ---------------------------------------------------------------------

/// Owned bytes whose base pointer is 8-aligned — the backing store every
/// [`SealedRegion`] casts its columns out of. `len` may be any byte count.
pub(crate) struct AlignedBytes {
    storage: Storage,
    len: usize,
}

/// Backing storage. `Raw` carries the invariant that the vector's base
/// pointer is 8-aligned (checked at adoption, never mutated afterwards —
/// the vector is neither grown nor shrunk, so it cannot reallocate).
enum Storage {
    Words(Box<[u64]>),
    Raw(Vec<u8>),
}

impl AlignedBytes {
    /// Zero-filled storage for `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        Self {
            storage: Storage::Words(vec![0u64; len.div_ceil(8)].into_boxed_slice()),
            len,
        }
    }

    /// Aligned copy of `bytes` (for callers that only hold a borrow —
    /// owned buffers should prefer [`AlignedBytes::from_vec`]).
    #[cfg(test)]
    pub fn copy_from(bytes: &[u8]) -> Self {
        let mut ab = Self::zeroed(bytes.len());
        ab.as_bytes_mut().copy_from_slice(bytes);
        ab
    }

    /// Adopts `bytes` without copying when its allocation happens to be
    /// 8-aligned — which the global allocator guarantees in practice for
    /// any buffer large enough to matter — and falls back to one aligned
    /// copy otherwise. Snapshot loads of real (multi-MiB) buffers take the
    /// zero-copy path; the copy fallback keeps correctness unconditional.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        let len = bytes.len();
        if (bytes.as_ptr() as usize).is_multiple_of(8) {
            Self {
                storage: Storage::Raw(bytes),
                len,
            }
        } else {
            let mut ab = Self::zeroed(len);
            ab.as_bytes_mut().copy_from_slice(&bytes);
            ab
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The bytes, starting 8-aligned.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.storage {
            // Sound: `words` covers at least `len` bytes, u64 has no
            // padding or invalid bit patterns, and u8 has alignment 1.
            Storage::Words(words) => unsafe {
                std::slice::from_raw_parts(words.as_ptr().cast(), self.len)
            },
            Storage::Raw(v) => v,
        }
    }

    /// Mutable view of the bytes.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        match &mut self.storage {
            Storage::Words(words) => unsafe {
                std::slice::from_raw_parts_mut(words.as_mut_ptr().cast(), self.len)
            },
            Storage::Raw(v) => v,
        }
    }
}

impl std::fmt::Debug for AlignedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedBytes({} bytes)", self.len)
    }
}

// ---------------------------------------------------------------------
// Little-endian writer / bounds-checked reader
// ---------------------------------------------------------------------

/// Append-only little-endian buffer writer.
struct Cursor {
    buf: Vec<u8>,
}

impl Cursor {
    /// Pre-reserves `cap` bytes — the writer knows the dominant section
    /// sizes up front, and growing a 100+ MiB buffer by doubling would copy
    /// the whole snapshot a couple of times over.
    fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    fn patch_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// Sequential little-endian reader; every read is bounds-checked and a
/// short buffer yields `Err`, never a panic.
struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(b: &'a [u8], pos: usize) -> Self {
        Self { b, pos }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| {
                corrupt(format!(
                    "buffer truncated: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.b.len().saturating_sub(self.pos)
                ))
            })?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u64` that must fit `usize` (trivial on 64-bit; explicit anyway).
    fn index(&mut self, what: &str) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| corrupt(format!("{what} exceeds usize")))
    }
}

// ---------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------

fn encode_assign(mode: AssignBy) -> u64 {
    match mode {
        AssignBy::Lower => 0,
        AssignBy::Center => 1,
        AssignBy::Upper => 2,
    }
}

fn decode_assign(v: u64) -> Result<AssignBy, SnapshotError> {
    match v {
        0 => Ok(AssignBy::Lower),
        1 => Ok(AssignBy::Center),
        2 => Ok(AssignBy::Upper),
        other => Err(corrupt(format!("unknown assignment mode {other}"))),
    }
}

fn write_slice<const D: usize>(w: &mut Cursor, s: &Slice<D>) {
    w.u64(s.level as u64);
    w.u64(s.begin as u64);
    w.u64(s.end as u64);
    w.u64(u64::from(s.refined) | (u64::from(s.keys_fresh) << 1));
    w.f64(s.cut_lo);
    w.f64(s.cut_hi);
    w.f64(s.key_lo);
    for d in 0..D {
        w.f64(s.bbox.lo[d]);
    }
    for d in 0..D {
        w.f64(s.bbox.hi[d]);
    }
    w.u64(s.children.len() as u64);
    for c in &s.children {
        write_slice(w, c);
    }
}

pub(crate) fn write<const D: usize>(idx: &mut Quasii<D>) -> Result<Vec<u8>, SnapshotError> {
    require_little_endian()?;
    // Never persist a state that might be mid-crack inconsistent: a
    // poisoned engine must repair() (revalidate or rebuild) first.
    if idx.poisoned.is_some() {
        return Err(SnapshotError::Unsupported(
            "a poisoned engine (a worker panicked mid-batch; call repair() first)",
        ));
    }
    // Initialize and sweep first: a snapshot captures the post-sweep state.
    idx.ensure_init();
    idx.try_seal();

    let n = idx.data.len();
    // Records + key columns + region blobs dominate; headers, the slice
    // tree and the region table ride in the slack (at worst one realloc).
    let blob_bytes: usize = idx.seals.iter().map(|r| r.blob().len()).sum();
    let mut w = Cursor::with_capacity(n * (24 + 16 * D) + blob_bytes + (64 << 10));
    w.bytes(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u32(D as u32);
    w.u64(0); // checksum, patched below
    w.u64(0); // total length, patched below

    w.u64(n as u64);
    w.u64(u64::from(idx.initialized) | (u64::from(idx.seal_dirty_all) << 1));
    w.u64(idx.cfg.tau as u64);
    w.u64(encode_assign(idx.cfg.assign_by));
    w.u64(idx.cfg.max_artificial_depth as u64);
    w.u64(idx.cfg.threads as u64);
    w.u64(u64::from(idx.cfg.seal));
    let st = idx.rt.stats;
    for v in [
        st.queries,
        st.cracks,
        st.records_cracked,
        st.slices_created,
        st.slices_refined,
        st.default_children,
        st.forced_refinements,
        st.objects_tested,
        st.rekeys,
        st.records_rekeyed,
    ] {
        w.u64(v);
    }
    for v in idx.seal_stats.snapshot() {
        w.u64(v);
    }
    w.u64(idx.seal_stamp);
    for d in 0..D {
        w.f64(idx.ext_low[d]);
    }
    for d in 0..D {
        w.f64(idx.ext_high[d]);
    }
    for d in 0..D {
        w.f64(idx.data_bounds.lo[d]);
    }
    for d in 0..D {
        w.f64(idx.data_bounds.hi[d]);
    }
    w.u64(idx.seal_dirty.len() as u64);
    for &(lo, hi) in &idx.seal_dirty {
        w.u64(lo as u64);
        w.u64(hi as u64);
    }

    // Records, in the engine's current (cracked) permutation — reloading
    // them verbatim is what makes the reloaded permutation byte-identical.
    for r in &idx.data {
        w.u64(r.id);
        for d in 0..D {
            w.f64(r.mbb.lo[d]);
        }
        for d in 0..D {
            w.f64(r.mbb.hi[d]);
        }
    }

    // Key columns (built whenever the dataset is non-empty — `write` runs
    // after `ensure_init`).
    let has_keys = idx.keys.is_built(n) && n > 0;
    debug_assert_eq!(has_keys, n > 0);
    w.u64(u64::from(has_keys));
    if has_keys {
        for &k in idx.keys.keys() {
            w.f64(k);
        }
        for &h in idx.keys.his() {
            w.f64(h);
        }
    }

    // Slice-tree skeleton, pre-order — enough to revive the unsealed
    // remainder (and the source of truth the sealed regions mirror).
    w.u64(idx.root.len() as u64);
    for s in &idx.root {
        write_slice(&mut w, s);
    }

    // Region table + blobs. Blob offsets are absolute and computed before
    // the blobs are appended (table size is known).
    w.u64(idx.seals.len() as u64);
    let mut blob_off = w.buf.len() + idx.seals.len() * 32;
    for r in &idx.seals {
        w.u64(r.begin as u64);
        w.u64(r.end as u64);
        w.u64(blob_off as u64);
        w.u64(r.blob().len() as u64);
        blob_off += r.blob().len();
    }
    for r in &idx.seals {
        debug_assert_eq!(w.buf.len() % 8, 0, "region blobs start 8-aligned");
        w.bytes(r.blob());
    }

    let total = w.buf.len() as u64;
    w.patch_u64(24, total);
    let sum = fnv1a(&w.buf[CHECKSUM_FROM..]);
    w.patch_u64(16, sum);
    Ok(w.buf)
}

// ---------------------------------------------------------------------
// Load path
// ---------------------------------------------------------------------

/// Reads one pre-order slice whose range must start at `*cursor` and stay
/// within `end`; advances the cursor past it. Level/partition validation
/// here is what bounds the recursion (children are one level deeper, and
/// levels stop at `D - 1`) and every later engine-side index (all ranges
/// nest inside `0..n`).
fn read_slice<const D: usize>(
    r: &mut Reader,
    level: usize,
    cursor: &mut usize,
    end: usize,
) -> Result<Slice<D>, SnapshotError> {
    let got_level = r.index("slice level")?;
    if got_level != level {
        return Err(corrupt(format!(
            "slice at level {got_level}, expected {level}"
        )));
    }
    let begin = r.index("slice begin")?;
    let s_end = r.index("slice end")?;
    if begin != *cursor || s_end <= begin || s_end > end {
        return Err(corrupt(format!(
            "slice range {begin}..{s_end} does not partition {}..{end} at level {level}",
            *cursor
        )));
    }
    *cursor = s_end;
    let flags = r.u64()?;
    if flags > 0b11 {
        return Err(corrupt(format!("unknown slice flags {flags:#x}")));
    }
    let cut_lo = r.f64()?;
    let cut_hi = r.f64()?;
    let key_lo = r.f64()?;
    let mut lo = [0.0; D];
    let mut hi = [0.0; D];
    for v in &mut lo {
        *v = r.f64()?;
    }
    for v in &mut hi {
        *v = r.f64()?;
    }
    let child_count = r.index("child count")?;
    let mut children = Vec::new();
    if child_count > 0 {
        if level + 1 >= D {
            return Err(corrupt(format!(
                "bottom-level slice claims {child_count} children"
            )));
        }
        let mut child_cursor = begin;
        for _ in 0..child_count {
            children.push(read_slice(r, level + 1, &mut child_cursor, s_end)?);
        }
        if child_cursor != s_end {
            return Err(corrupt(format!(
                "children cover {begin}..{child_cursor}, expected {begin}..{s_end}"
            )));
        }
    }
    Ok(Slice {
        level,
        begin,
        end: s_end,
        bbox: Aabb { lo, hi },
        cut_lo,
        cut_hi,
        key_lo,
        refined: flags & 1 != 0,
        keys_fresh: flags & 2 != 0,
        children,
    })
}

pub(crate) fn load<const D: usize>(bytes: Vec<u8>) -> Result<Quasii<D>, SnapshotError> {
    require_little_endian()?;
    if bytes.len() < 32 {
        return Err(corrupt(format!(
            "{} bytes is shorter than the 32-byte snapshot prefix",
            bytes.len()
        )));
    }
    if bytes[..8] != MAGIC {
        return Err(corrupt("bad magic (not a QUASII snapshot)"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(SnapshotError::WrongVersion {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let dims = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    if dims as usize != D {
        return Err(SnapshotError::WrongDims {
            found: dims,
            expected: D as u32,
        });
    }
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let total = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    if total != bytes.len() as u64 {
        return Err(corrupt(format!(
            "header claims {total} bytes, buffer holds {}",
            bytes.len()
        )));
    }
    let actual = fnv1a(&bytes[CHECKSUM_FROM..]);
    if actual != checksum {
        return Err(corrupt(format!(
            "checksum mismatch: header {checksum:#018x}, computed {actual:#018x}"
        )));
    }

    // Adopt the buffer in place (aligned-copy fallback only if the
    // allocator handed out a misaligned base, which it doesn't in
    // practice); every sealed column below borrows this buffer.
    let buf = Arc::new(AlignedBytes::from_vec(bytes));
    let mut r = Reader::new(buf.as_bytes(), 32);

    let n = r.index("record count")?;
    let flags = r.u64()?;
    if flags & 1 == 0 || flags > 0b11 {
        return Err(corrupt(format!("unknown snapshot flags {flags:#x}")));
    }
    let seal_dirty_all = flags & 2 != 0;
    let cfg = QuasiiConfig {
        tau: r.index("tau")?,
        assign_by: decode_assign(r.u64()?)?,
        max_artificial_depth: r.index("max_artificial_depth")?,
        threads: r.index("threads")?,
        seal: match r.u64()? {
            0 => false,
            1 => true,
            other => return Err(corrupt(format!("seal flag {other}"))),
        },
        // The SIMD policy is a host property, not index state: a snapshot
        // written on an AVX2 host must dispatch scalar on a host without
        // it (results are identical either way), so it is never persisted
        // and every load re-resolves from the default policy.
        simd: crate::simd::SimdPolicy::default(),
    };
    let mut stats = QuasiiStats::default();
    for slot in [
        &mut stats.queries,
        &mut stats.cracks,
        &mut stats.records_cracked,
        &mut stats.slices_created,
        &mut stats.slices_refined,
        &mut stats.default_children,
        &mut stats.forced_refinements,
        &mut stats.objects_tested,
        &mut stats.rekeys,
        &mut stats.records_rekeyed,
    ] {
        *slot = r.u64()?;
    }
    let mut seal_stats = SealStats::default();
    for slot in [
        &mut seal_stats.seals,
        &mut seal_stats.unseals,
        &mut seal_stats.sealed_queries,
    ] {
        *slot = r.u64()?;
    }
    let seal_stamp = r.u64()?;
    let mut ext_low = [0.0; D];
    let mut ext_high = [0.0; D];
    for v in &mut ext_low {
        *v = r.f64()?;
    }
    for v in &mut ext_high {
        *v = r.f64()?;
    }
    let mut b_lo = [0.0; D];
    let mut b_hi = [0.0; D];
    for v in &mut b_lo {
        *v = r.f64()?;
    }
    for v in &mut b_hi {
        *v = r.f64()?;
    }
    let data_bounds = Aabb { lo: b_lo, hi: b_hi };
    let dirty_count = r.index("dirty-span count")?;
    let mut seal_dirty = Vec::new();
    for _ in 0..dirty_count {
        let lo = r.index("dirty span lo")?;
        let hi = r.index("dirty span hi")?;
        seal_dirty.push((lo, hi));
    }

    // Bulk-decode the two big sections (records, key columns): one bounds
    // check for the whole section, then fixed-stride chunks — the per-scalar
    // `Reader` calls are fine for headers but dominate load time at n ~ 10⁶.
    // `take` succeeding also proves `n` is honest, so the reserves below are
    // bounded by the buffer length.
    let rec_bytes = (1 + 2 * D) * 8;
    let sect = r.take(
        n.checked_mul(rec_bytes)
            .ok_or_else(|| corrupt("record section overflow"))?,
    )?;
    let mut data = Vec::with_capacity(n);
    for c in sect.chunks_exact(rec_bytes) {
        let id = u64::from_le_bytes(c[..8].try_into().unwrap());
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for (d, v) in lo.iter_mut().enumerate() {
            *v = f64::from_le_bytes(c[8 + 8 * d..16 + 8 * d].try_into().unwrap());
        }
        for (d, v) in hi.iter_mut().enumerate() {
            let at = 8 + 8 * (D + d);
            *v = f64::from_le_bytes(c[at..at + 8].try_into().unwrap());
        }
        data.push(Record::new(id, Aabb { lo, hi }));
    }

    let has_keys = match r.u64()? {
        0 => false,
        1 => true,
        other => return Err(corrupt(format!("key-column flag {other}"))),
    };
    if has_keys != (n > 0) {
        return Err(corrupt(
            "key-column presence disagrees with the record count",
        ));
    }
    let f64_column = |r: &mut Reader| -> Result<Vec<f64>, SnapshotError> {
        let sect = r.take(
            n.checked_mul(8)
                .ok_or_else(|| corrupt("key column overflow"))?,
        )?;
        Ok(sect
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    };
    let keys = if has_keys {
        let ks = f64_column(&mut r)?;
        let hs = f64_column(&mut r)?;
        KeyColumn::from_raw(ks, hs)
    } else {
        KeyColumn::new()
    };

    let root_count = r.index("root-slice count")?;
    let mut root = Vec::new();
    let mut cursor = 0usize;
    for _ in 0..root_count {
        root.push(read_slice::<D>(&mut r, 0, &mut cursor, n)?);
    }
    if cursor != n {
        return Err(corrupt(format!(
            "root slices cover 0..{cursor}, expected 0..{n}"
        )));
    }

    // Region table, then revive each blob as a borrow of `buf`. The writer
    // lays blobs back-to-back right after the table; enforcing that exactly
    // (offsets sequential, last blob ending at the buffer end) means no
    // byte of the buffer is unaccounted for.
    let region_count = r.index("region count")?;
    let table_end = r
        .pos
        .checked_add(
            region_count
                .checked_mul(32)
                .ok_or_else(|| corrupt("region table overflow"))?,
        )
        .ok_or_else(|| corrupt("region table overflow"))?;
    let mut expected_off = table_end;
    let mut seals: Vec<SealedRegion<D>> = Vec::new();
    let mut root_cursor = 0usize;
    for k in 0..region_count {
        let begin = r.index("region begin")?;
        let end = r.index("region end")?;
        let off = r.index("region blob offset")?;
        let len = r.index("region blob length")?;
        if off != expected_off {
            return Err(corrupt(format!(
                "region {k} blob at {off}, expected {expected_off}"
            )));
        }
        expected_off = off
            .checked_add(len)
            .ok_or_else(|| corrupt("region blob overflow"))?;
        // Every seal must mirror a top-level slice (the sealed query path's
        // cursor merge relies on it). Both lists are sorted, so one forward
        // scan matches them up.
        while root_cursor < root.len() && root[root_cursor].begin < begin {
            root_cursor += 1;
        }
        if root
            .get(root_cursor)
            .is_none_or(|s| s.begin != begin || s.end != end)
        {
            return Err(corrupt(format!(
                "region {k} covers {begin}..{end}, which matches no top-level slice"
            )));
        }
        root_cursor += 1;
        let region = SealedRegion::from_blob(begin, end, Arc::clone(&buf), off, len)
            .map_err(|e| corrupt(format!("region {k}: {e}")))?;
        seals.push(region);
    }
    if expected_off != buf.len() {
        return Err(corrupt(format!(
            "buffer holds {} bytes, sections account for {expected_off}",
            buf.len()
        )));
    }
    if !cfg.seal && !seals.is_empty() {
        return Err(corrupt("sealed regions present with sealing disabled"));
    }

    let sealed_record_count = seals.iter().map(SealedRegion::records).sum();
    let mut rt = Runtime::new();
    rt.stats = stats;
    Ok(Quasii {
        data,
        keys,
        root,
        env: Env {
            tau: config::tau_schedule::<D>(n, cfg.tau),
            mode: cfg.assign_by,
            max_artificial_depth: cfg.max_artificial_depth,
            simd: cfg.simd.resolve(),
        },
        rt,
        cfg,
        ext_low,
        ext_high,
        data_bounds,
        initialized: true,
        precomputed_keys: None,
        seals,
        seal_stamp,
        seal_stats: quasii_obs::CounterGroup::from_snapshot(seal_stats.cells()),
        sealed_record_count,
        seal_dirty,
        seal_dirty_all,
        poisoned: None,
        panic_trap: None,
    })
}

// ---------------------------------------------------------------------
// Verification (no engine construction)
// ---------------------------------------------------------------------

/// What [`verify`] learned about a snapshot buffer. Everything here was
/// cross-checked against the buffer's actual size and section accounting —
/// printing it is safe even for adversarial input (which would have
/// returned `Err` instead).
#[derive(Debug, Clone)]
pub struct SnapshotSummary {
    /// Total buffer length in bytes.
    pub bytes: usize,
    /// Dimensionality from the header.
    pub dims: u32,
    /// Record count.
    pub records: u64,
    /// Top-level slice count.
    pub root_slices: u64,
    /// Total slice count across the whole tree.
    pub slices: u64,
    /// Per sealed region: record range `begin..end` and blob bytes.
    pub regions: Vec<(u64, u64, u64)>,
    /// The (verified) FNV-1a checksum from the header.
    pub checksum: u64,
}

/// Skims one pre-order slice without building it — the runtime-`dims`
/// mirror of [`read_slice`]'s structural checks (partition, level bounds).
fn skim_slice(
    r: &mut Reader,
    dims: usize,
    level: usize,
    cursor: &mut usize,
    end: usize,
    slices: &mut u64,
) -> Result<(), SnapshotError> {
    let got_level = r.index("slice level")?;
    if got_level != level {
        return Err(corrupt(format!(
            "slice at level {got_level}, expected {level}"
        )));
    }
    let begin = r.index("slice begin")?;
    let s_end = r.index("slice end")?;
    if begin != *cursor || s_end <= begin || s_end > end {
        return Err(corrupt(format!(
            "slice range {begin}..{s_end} does not partition {}..{end} at level {level}",
            *cursor
        )));
    }
    *cursor = s_end;
    let flags = r.u64()?;
    if flags > 0b11 {
        return Err(corrupt(format!("unknown slice flags {flags:#x}")));
    }
    r.take((3 + 2 * dims) * 8)?; // cut_lo, cut_hi, key_lo, bbox lo/hi
    *slices += 1;
    let child_count = r.index("child count")?;
    if child_count > 0 {
        if level + 1 >= dims {
            return Err(corrupt(format!(
                "bottom-level slice claims {child_count} children"
            )));
        }
        let mut child_cursor = begin;
        for _ in 0..child_count {
            skim_slice(r, dims, level + 1, &mut child_cursor, s_end, slices)?;
        }
        if child_cursor != s_end {
            return Err(corrupt(format!(
                "children cover {begin}..{child_cursor}, expected {begin}..{s_end}"
            )));
        }
    }
    Ok(())
}

/// Verifies an engine snapshot **without constructing the engine**: the
/// 32-byte prefix (magic, version, checksum over the whole body, total
/// length), then a structural skim of every section — the slice tree must
/// exactly partition the dataset, the region table must mirror top-level
/// structure with back-to-back blobs, and the final blob must end exactly
/// at the buffer end. Works for any dimensionality (the header's `dims`
/// drives the strides), so the CLI `verify` subcommand needs no type
/// parameter. Returns the per-region report on success.
pub fn verify(bytes: &[u8]) -> Result<SnapshotSummary, SnapshotError> {
    if bytes.len() < 32 {
        return Err(corrupt(format!(
            "{} bytes is shorter than the 32-byte snapshot prefix",
            bytes.len()
        )));
    }
    if bytes[..8] != MAGIC {
        return Err(corrupt("bad magic (not a QUASII snapshot)"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(SnapshotError::WrongVersion {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let dims32 = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    let dims = dims32 as usize;
    // The slice walk recurses one level per dimension; bound it before
    // trusting a crafted header with it.
    if dims == 0 || dims > 64 {
        return Err(corrupt(format!("implausible dimensionality {dims}")));
    }
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let total = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    if total != bytes.len() as u64 {
        return Err(corrupt(format!(
            "header claims {total} bytes, buffer holds {}",
            bytes.len()
        )));
    }
    let actual = fnv1a(&bytes[CHECKSUM_FROM..]);
    if actual != checksum {
        return Err(corrupt(format!(
            "checksum mismatch: header {checksum:#018x}, computed {actual:#018x}"
        )));
    }

    let mut r = Reader::new(bytes, 32);
    let n = r.index("record count")?;
    let flags = r.u64()?;
    if flags & 1 == 0 || flags > 0b11 {
        return Err(corrupt(format!("unknown snapshot flags {flags:#x}")));
    }
    let _tau = r.u64()?;
    decode_assign(r.u64()?)?;
    r.take(2 * 8)?; // max_artificial_depth, threads
    let seal_enabled = match r.u64()? {
        0 => false,
        1 => true,
        other => return Err(corrupt(format!("seal flag {other}"))),
    };
    r.take((10 + 3 + 1) * 8)?; // stats, seal stats, seal_stamp
    r.take(4 * dims * 8)?; // ext_low/high, bounds lo/hi
    let dirty_count = r.index("dirty-span count")?;
    r.take(
        dirty_count
            .checked_mul(16)
            .ok_or_else(|| corrupt("dirty-span overflow"))?,
    )?;

    // Records — one bounds-checked take proves the declared count honest
    // before anything is sized from it.
    let rec_bytes = (1 + 2 * dims) * 8;
    r.take(
        n.checked_mul(rec_bytes)
            .ok_or_else(|| corrupt("record section overflow"))?,
    )?;
    let has_keys = match r.u64()? {
        0 => false,
        1 => true,
        other => return Err(corrupt(format!("key-column flag {other}"))),
    };
    if has_keys != (n > 0) {
        return Err(corrupt(
            "key-column presence disagrees with the record count",
        ));
    }
    if has_keys {
        r.take(
            n.checked_mul(16)
                .ok_or_else(|| corrupt("key column overflow"))?,
        )?;
    }

    let root_count = r.index("root-slice count")?;
    let mut cursor = 0usize;
    let mut slices = 0u64;
    for _ in 0..root_count {
        skim_slice(&mut r, dims, 0, &mut cursor, n, &mut slices)?;
    }
    if cursor != n {
        return Err(corrupt(format!(
            "root slices cover 0..{cursor}, expected 0..{n}"
        )));
    }

    let region_count = r.index("region count")?;
    let table_end = r
        .pos
        .checked_add(
            region_count
                .checked_mul(32)
                .ok_or_else(|| corrupt("region table overflow"))?,
        )
        .ok_or_else(|| corrupt("region table overflow"))?;
    let mut expected_off = table_end;
    let mut regions = Vec::new();
    for k in 0..region_count {
        let begin = r.u64()?;
        let end = r.u64()?;
        let off = r.index("region blob offset")?;
        let len = r.index("region blob length")?;
        if off != expected_off {
            return Err(corrupt(format!(
                "region {k} blob at {off}, expected {expected_off}"
            )));
        }
        expected_off = off
            .checked_add(len)
            .ok_or_else(|| corrupt("region blob overflow"))?;
        regions.push((begin, end, len as u64));
    }
    if expected_off != bytes.len() {
        return Err(corrupt(format!(
            "buffer holds {} bytes, sections account for {expected_off}",
            bytes.len()
        )));
    }
    if !seal_enabled && !regions.is_empty() {
        return Err(corrupt("sealed regions present with sealing disabled"));
    }

    Ok(SnapshotSummary {
        bytes: bytes.len(),
        dims: dims32,
        records: n as u64,
        root_slices: root_count as u64,
        slices,
        regions,
        checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasii_common::dataset::uniform_boxes_in;
    use quasii_common::index::SpatialIndex;
    use quasii_common::workload;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let data = uniform_boxes_in::<3>(3_000, 500.0, 42);
        let u = Aabb::new([0.0; 3], [500.0; 3]);
        let queries = workload::uniform(&u, 60, 1e-3, 43).queries;
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(16));
        for q in &queries[..30] {
            idx.query_collect(q);
        }
        let snap = idx.write_snapshot().expect("write");
        let mut re = Quasii::<3>::from_snapshot(snap).expect("load");
        assert_eq!(re.stats(), idx.stats());
        assert_eq!(re.seal_stats(), idx.seal_stats());
        assert_eq!(re.sealed_regions(), idx.sealed_regions());
        assert_eq!(re.data(), idx.data(), "permutation is byte-identical");
        re.validate().expect("reloaded invariants");
        for q in &queries {
            assert_eq!(re.query_collect(q), idx.query_collect(q), "query {q:?}");
        }
        assert_eq!(re.stats(), idx.stats(), "work counters track in lockstep");
    }

    #[test]
    fn empty_and_unqueried_indexes_roundtrip() {
        let mut empty = Quasii::<2>::with_default_config(Vec::new());
        let snap = empty.write_snapshot().expect("write empty");
        let mut re = Quasii::<2>::from_snapshot(snap).expect("load empty");
        assert!(re.is_empty());
        assert!(re.query_collect(&Aabb::new([0.0; 2], [1.0; 2])).is_empty());

        let data = uniform_boxes_in::<2>(200, 50.0, 7);
        let mut fresh = Quasii::new(data, QuasiiConfig::with_tau(8));
        let snap = fresh.write_snapshot().expect("write unqueried");
        let mut re = Quasii::<2>::from_snapshot(snap).expect("load unqueried");
        let q = Aabb::new([10.0; 2], [30.0; 2]);
        assert_eq!(re.query_collect(&q), fresh.query_collect(&q));
    }

    #[test]
    fn corrupted_prefixes_are_rejected() {
        let data = uniform_boxes_in::<2>(300, 50.0, 9);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(8));
        idx.finalize();
        let snap = idx.write_snapshot().expect("write");

        let mut bad = snap.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Quasii::<2>::from_snapshot(bad),
            Err(SnapshotError::Corrupt(_))
        ));

        let mut bad = snap.clone();
        bad[8] = 99; // version
        assert!(matches!(
            Quasii::<2>::from_snapshot(bad),
            Err(SnapshotError::WrongVersion { found: 99, .. })
        ));

        assert!(matches!(
            Quasii::<3>::from_snapshot(snap.clone()),
            Err(SnapshotError::WrongDims {
                found: 2,
                expected: 3
            })
        ));

        let mut bad = snap.clone();
        let at = snap.len() / 2;
        bad[at] ^= 0x01; // body flip → checksum
        assert!(matches!(
            Quasii::<2>::from_snapshot(bad),
            Err(SnapshotError::Corrupt(_))
        ));

        for cut in [0, 10, 31, 32, snap.len() - 1] {
            assert!(Quasii::<2>::from_snapshot(snap[..cut].to_vec()).is_err());
        }
    }

    #[test]
    fn verify_skims_without_constructing_the_engine() {
        let data = uniform_boxes_in::<3>(2_000, 400.0, 61);
        let u = Aabb::new([0.0; 3], [400.0; 3]);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(16));
        for q in &workload::uniform(&u, 40, 1e-3, 62).queries {
            idx.query_collect(q);
        }
        let snap = idx.write_snapshot().expect("write");
        let s = verify(&snap).expect("verify");
        assert_eq!(s.bytes, snap.len());
        assert_eq!(s.dims, 3);
        assert_eq!(s.records, 2_000);
        assert_eq!(s.regions.len(), idx.sealed_regions());
        assert!(s.slices >= s.root_slices && s.root_slices > 0);

        // Same corruption classes `load` rejects.
        let mut bad = snap.clone();
        bad[snap.len() / 2] ^= 1;
        assert!(matches!(verify(&bad), Err(SnapshotError::Corrupt(_))));
        let mut bad = snap.clone();
        bad[8] = 99;
        assert!(matches!(
            verify(&bad),
            Err(SnapshotError::WrongVersion { found: 99, .. })
        ));
        assert!(verify(&snap[..snap.len() - 1]).is_err());

        // A crafted header with an absurd region count must not allocate
        // or walk out of bounds.
        let mut bad = snap.clone();
        let len = bad.len();
        bad[len - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(verify(&bad).is_err());
    }

    #[test]
    fn poisoned_engines_refuse_snapshots() {
        let data = uniform_boxes_in::<2>(300, 50.0, 63);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(8).with_threads(2));
        idx.inject_panic_at(0);
        let q = Aabb::new([0.0; 2], [50.0; 2]);
        assert!(idx.try_execute_batch(&[q]).is_err());
        assert!(matches!(
            idx.write_snapshot(),
            Err(SnapshotError::Unsupported(_))
        ));
        idx.repair();
        assert!(idx.write_snapshot().is_ok());
    }

    #[test]
    fn spatial_index_hooks_dispatch() {
        let data = uniform_boxes_in::<2>(150, 20.0, 5);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(8));
        idx.finalize();
        let snap = SpatialIndex::write_snapshot(&mut idx).expect("trait write");
        let mut re = <Quasii<2> as SpatialIndex<2>>::from_snapshot(snap).expect("trait load");
        let q = Aabb::new([2.0; 2], [9.0; 2]);
        assert_eq!(re.query_collect(&q), idx.query_collect(&q));
    }
}
