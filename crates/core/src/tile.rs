//! Tiles: the unit of block-wide processing.
//!
//! A [`Tile`] is the staging area a thread block works on — the collective
//! registers / shared memory holding `block_dim * items_per_thread` items
//! ("even though a single thread on the GPU at full occupancy can hold only
//! up to 24 integers in shared memory, a single thread block can hold a
//! significantly larger group of elements collectively", Section 3.2).
//!
//! Tiles are allocated once per kernel (outside the per-block loop) and
//! reused across blocks, mirroring static shared-memory declarations in the
//! CUDA original.
//!
//! A *lane list* names the live lanes of a tile in ascending order, one
//! `u16` each, so a fused pipeline's later stages walk only the rows still
//! alive ([`bitmap_lanes`] makes one, `retain_lanes` narrows it).

/// Lists the set lanes of `bitmap` in `lanes`, in ascending order.
///
/// # Panics
/// If the tile has more lanes than a `u16` can name.
#[inline]
pub fn bitmap_lanes(bitmap: &Tile<bool>, lanes: &mut Vec<u16>) {
    let n = bitmap.len();
    assert!(n <= 1 << 16, "a {n}-lane tile does not fit a u16 lane list");
    lanes.resize(n, 0);
    let mut kept = 0;
    for (lane, &set) in bitmap.as_slice().iter().enumerate() {
        lanes[kept] = lane as u16;
        kept += set as usize;
    }
    lanes.truncate(kept);
}

/// Keeps the lanes `keep` accepts, in order, compacting the list in place
/// without a branch on the outcome (each lane is written, then judged).
#[inline]
pub(crate) fn retain_lanes(lanes: &mut Vec<u16>, mut keep: impl FnMut(usize) -> bool) {
    let mut kept = 0;
    for read in 0..lanes.len() {
        let lane = lanes[read];
        lanes[kept] = lane;
        kept += keep(lane as usize) as usize;
    }
    lanes.truncate(kept);
}

/// A fixed-capacity buffer of tile items with a current length.
#[derive(Debug, Clone)]
pub struct Tile<T> {
    data: Vec<T>,
    len: usize,
}

impl<T: Copy + Default> Tile<T> {
    /// A tile able to hold `capacity` items (`block_dim * items_per_thread`).
    pub fn new(capacity: usize) -> Self {
        Tile {
            data: vec![T::default(); capacity],
            len: 0,
        }
    }

    /// Maximum items the tile can hold.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Items currently valid.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Sets the number of valid items (items beyond the previous length keep
    /// whatever values the backing storage holds, as in real shared memory).
    #[inline]
    pub fn set_len(&mut self, len: usize) {
        debug_assert!(len <= self.capacity());
        self.len = len;
    }

    /// Valid items.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data[..self.len]
    }

    /// Mutable access to the valid prefix.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data[..self.len]
    }

    /// Mutable access to the full backing storage (for primitives that write
    /// before setting the length).
    #[inline]
    pub(crate) fn storage_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Size in bytes of the valid items.
    #[inline]
    pub(crate) fn bytes(&self) -> usize {
        self.len * std::mem::size_of::<T>()
    }

    /// Empties the tile.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends one item (device-side code uses this when compacting).
    #[inline]
    pub fn push(&mut self, v: T) {
        debug_assert!(self.len < self.capacity());
        self.data[self.len] = v;
        self.len += 1;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The lane lists the lane-form oracles walk over a tile of `len`
    /// lanes: none, one, every lane, only the last, and a scattered 40 %.
    pub(crate) fn lane_lists(len: usize) -> Vec<Vec<u16>> {
        let all = 0..len as u16;
        vec![
            Vec::new(),
            vec![(len / 2) as u16],
            all.clone().collect(),
            vec![(len - 1) as u16],
            all.filter(|&lane| lane * 7 % 5 < 2).collect(),
        ]
    }

    #[test]
    fn new_tile_is_empty_with_capacity() {
        let t: Tile<i32> = Tile::new(512);
        assert_eq!(t.capacity(), 512);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn push_and_slice() {
        let mut t: Tile<i32> = Tile::new(4);
        t.push(7);
        t.push(9);
        assert_eq!(t.as_slice(), &[7, 9]);
        assert_eq!(t.bytes(), 8);
    }

    #[test]
    fn set_len_exposes_storage() {
        let mut t: Tile<i32> = Tile::new(4);
        t.storage_mut()[0] = 1;
        t.storage_mut()[1] = 2;
        t.set_len(2);
        assert_eq!(t.as_slice(), &[1, 2]);
        t.clear();
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn lane_lists_keep_ascending_order() {
        let mut bm: Tile<bool> = Tile::new(8);
        for b in [true, false, true, true, false, false, true, true] {
            bm.push(b);
        }
        let mut lanes = vec![9; 3];
        bitmap_lanes(&bm, &mut lanes);
        assert_eq!(lanes, [0, 2, 3, 6, 7]);
        retain_lanes(&mut lanes, |lane| lane % 3 != 0);
        assert_eq!(lanes, [2, 7]);
        retain_lanes(&mut lanes, |_| false);
        assert!(lanes.is_empty());
        bm.clear();
        bitmap_lanes(&bm, &mut lanes);
        assert!(lanes.is_empty());
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn push_past_capacity_panics_in_debug() {
        let mut t: Tile<i32> = Tile::new(1);
        t.push(1);
        t.push(2);
    }
}
