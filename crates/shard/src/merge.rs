//! The canonical merge: every answer a deployment returns is sorted by id.
//!
//! Shards emit hits in their private physical order, so the router sorts
//! each merged answer. Short answers use `sort_unstable`; from
//! [`RADIX_MIN`] ids on, an LSD radix sort over 11-bit digits does the job
//! in `ceil(bits(max id) / 11)` counting passes — two for any dataset under
//! 2²² records. Both produce the one sorted order of the multiset, so
//! answers are byte-identical whichever path a length takes.

/// Answers this long or longer take the radix path.
pub const RADIX_MIN: usize = 256;

const DIGIT_BITS: u32 = 11;
const BUCKETS: usize = 1 << DIGIT_BITS;

/// Sorts `ids` ascending; `scratch` is reused working space (its contents
/// are unspecified afterwards). Equal to `ids.sort_unstable()` for every
/// input, duplicates included.
pub fn sort_canonical(ids: &mut Vec<u64>, scratch: &mut Vec<u64>) {
    if ids.len() < RADIX_MIN {
        ids.sort_unstable();
        return;
    }
    let bits = u64::BITS - ids.iter().fold(0u64, |acc, &x| acc | x).leading_zeros();
    scratch.clear();
    scratch.resize(ids.len(), 0);
    let mut shift = 0;
    while shift < bits {
        let digit = |x: u64| ((x >> shift) as usize) & (BUCKETS - 1);
        let mut counts = [0usize; BUCKETS];
        for &x in ids.iter() {
            counts[digit(x)] += 1;
        }
        // A digit every id shares leaves the order as it is.
        if counts.contains(&ids.len()) {
            shift += DIGIT_BITS;
            continue;
        }
        let mut sum = 0;
        for c in counts.iter_mut() {
            let here = *c;
            *c = sum;
            sum += here;
        }
        for &x in ids.iter() {
            let d = digit(x);
            scratch[counts[d]] = x;
            counts[d] += 1;
        }
        std::mem::swap(ids, scratch);
        shift += DIGIT_BITS;
    }
}
