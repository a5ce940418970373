//! Heap bytes of std containers, for memory counts that miss no
//! allocation (allocator headers aside).

use std::alloc::Layout;
use std::mem::size_of;

/// Heap bytes of a std (hashbrown) hash table whose `capacity()` is
/// `capacity`: one `T` and one control byte per bucket, plus one
/// trailing 16-byte control group. Buckets are a power of two, and a
/// table of 8 or more buckets holds at most 7/8 of them.
pub fn table_bytes<T>(capacity: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = if capacity < 8 {
        capacity + 1
    } else {
        capacity / 7 * 8
    };
    buckets.next_power_of_two() * (size_of::<T>() + 1) + 16
}

/// Heap bytes of the allocation behind an `Arc` of a value laid out as
/// `value`: the two reference counts, then the value, padded.
pub fn arc_bytes(value: Layout) -> usize {
    let (inner, _) = Layout::new::<[usize; 2]>()
        .extend(value)
        .expect("fits isize");
    inner.pad_to_align().size()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arc_bytes_counts_both_counts_and_pads_to_alignment() {
        assert_eq!(arc_bytes(Layout::new::<u64>()), 24);
        assert_eq!(arc_bytes(Layout::new::<Vec<u32>>()), 40);
        // A 3-byte str pads to the counts' 8-byte alignment.
        assert_eq!(arc_bytes(Layout::for_value::<str>("abc")), 24);
        assert_eq!(arc_bytes(Layout::for_value::<str>("")), 16);
        // Twelve 4-byte-aligned bytes after the counts: 28, padded to 32.
        assert_eq!(arc_bytes(Layout::array::<[u32; 3]>(1).unwrap()), 32);
    }
}
