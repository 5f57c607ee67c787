//! Physical addresses and NUCA address mapping.

use std::fmt;

/// Cache-line size in bytes (Table 1).
pub const LINE_BYTES: u64 = 64;

/// Log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 6;

/// A physical byte address.
///
/// # Examples
///
/// ```
/// use nocout_mem::addr::Addr;
///
/// let a = Addr(0x1234);
/// assert_eq!(a.line().0, 0x1200);
/// assert_eq!(a.line_index(), 0x48);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl Addr {
    /// The address of the cache line containing this address.
    #[inline]
    pub fn line(self) -> Addr {
        Addr(self.0 & !(LINE_BYTES - 1))
    }

    /// The line number (address >> line shift).
    #[inline]
    pub fn line_index(self) -> u64 {
        self.0 >> LINE_SHIFT
    }

    /// Builds an address from a line number.
    #[inline]
    pub fn from_line_index(idx: u64) -> Addr {
        Addr(idx << LINE_SHIFT)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Static NUCA interleaving of lines across LLC tiles, banks and memory
/// channels.
///
/// Tiled CMPs interleave across 64 tiles; NOC-Out interleaves across its
/// 8 LLC tiles, each internally 2-way banked (§5.1). Memory channels are
/// interleaved below the tile bits so traffic spreads over all four
/// DDR3-1667 channels.
///
/// # Examples
///
/// ```
/// use nocout_mem::addr::{Addr, AddressMap};
///
/// let map = AddressMap::new(8, 2, 4);
/// let a = Addr::from_line_index(13);
/// assert_eq!(map.home_tile(a), (13 % 8) as usize);
/// assert!(map.bank_in_tile(a) < 2);
/// assert!(map.memory_channel(a) < 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    llc_tiles: usize,
    banks_per_tile: usize,
    mem_channels: usize,
}

impl AddressMap {
    /// Creates a map over `llc_tiles` tiles with `banks_per_tile` banks
    /// each and `mem_channels` memory channels.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn new(llc_tiles: usize, banks_per_tile: usize, mem_channels: usize) -> Self {
        assert!(llc_tiles > 0 && banks_per_tile > 0 && mem_channels > 0);
        AddressMap {
            llc_tiles,
            banks_per_tile,
            mem_channels,
        }
    }

    /// Number of LLC tiles.
    pub fn llc_tiles(&self) -> usize {
        self.llc_tiles
    }

    /// Banks within each tile.
    pub fn banks_per_tile(&self) -> usize {
        self.banks_per_tile
    }

    /// Number of memory channels.
    pub fn mem_channels(&self) -> usize {
        self.mem_channels
    }

    /// Home LLC tile of a line (low-order line-interleaved).
    #[inline]
    pub fn home_tile(&self, addr: Addr) -> usize {
        (addr.line_index() % self.llc_tiles as u64) as usize
    }

    /// The lines of the `count`-line range starting at `first` whose home
    /// is `tile`, in ascending order — the interleave read the other way
    /// round, for callers that work through memory one tile at a time.
    pub fn lines_homed_at(
        &self,
        tile: usize,
        first: Addr,
        count: u64,
    ) -> impl Iterator<Item = Addr> {
        let tiles = self.llc_tiles as u64;
        let base = first.line_index();
        let skip = (tile as u64 + tiles - base % tiles) % tiles;
        (skip..count)
            .step_by(self.llc_tiles)
            .map(move |i| Addr::from_line_index(base + i))
    }

    /// [`AddressMap::lines_homed_at`] in closed form: the first line of
    /// the range homed at `tile` and how many are (each `llc_tiles` lines
    /// after the one before), or `None` when the range holds none.
    pub fn homed_run(&self, tile: usize, first: Addr, count: u64) -> Option<(Addr, u64)> {
        let tiles = self.llc_tiles as u64;
        let base = first.line_index();
        let skip = (tile as u64 + tiles - base % tiles) % tiles;
        (skip < count).then(|| {
            (
                Addr::from_line_index(base + skip),
                (count - skip).div_ceil(tiles),
            )
        })
    }

    /// Bank within the home tile.
    #[inline]
    pub fn bank_in_tile(&self, addr: Addr) -> usize {
        ((addr.line_index() / self.llc_tiles as u64) % self.banks_per_tile as u64) as usize
    }

    /// Memory channel servicing this line.
    #[inline]
    pub fn memory_channel(&self, addr: Addr) -> usize {
        (addr.line_index() % self.mem_channels as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_alignment() {
        assert_eq!(Addr(0).line(), Addr(0));
        assert_eq!(Addr(63).line(), Addr(0));
        assert_eq!(Addr(64).line(), Addr(64));
        assert_eq!(Addr(0xFFFF).line(), Addr(0xFFC0));
    }

    #[test]
    fn line_index_round_trip() {
        for i in [0u64, 1, 77, 1 << 30] {
            assert_eq!(Addr::from_line_index(i).line_index(), i);
        }
    }

    #[test]
    fn interleave_covers_all_tiles() {
        let map = AddressMap::new(8, 2, 4);
        let mut seen = [false; 8];
        for i in 0..64 {
            seen[map.home_tile(Addr::from_line_index(i))] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn lines_homed_at_is_the_interleave_tile_by_tile() {
        // Ranges that start off a tile boundary, end mid-stride, and are
        // shorter than one stride.
        for (tiles, first, count) in [(8, 0, 64), (8, 13, 50), (64, 1 << 34, 1_000), (5, 3, 2)] {
            let map = AddressMap::new(tiles, 1, 1);
            let first = Addr::from_line_index(first);
            let mut all = Vec::new();
            for tile in 0..tiles {
                let lines: Vec<Addr> = map.lines_homed_at(tile, first, count).collect();
                assert!(lines.iter().all(|&a| map.home_tile(a) == tile));
                assert!(lines.windows(2).all(|w| w[0] < w[1]), "ascending");
                all.extend(lines);
            }
            all.sort();
            let range: Vec<Addr> = (0..count)
                .map(|i| Addr::from_line_index(first.line_index() + i))
                .collect();
            assert_eq!(all, range);
        }
    }

    #[test]
    fn homed_run_is_lines_homed_at_in_closed_form() {
        // The grid above plus an empty range and one shorter than a stride
        // that starts off a tile boundary.
        for (tiles, first, count) in [
            (8, 0, 64),
            (8, 13, 50),
            (64, 1 << 34, 1_000),
            (5, 3, 2),
            (8, 13, 0),
            (64, 77, 9),
        ] {
            let map = AddressMap::new(tiles, 1, 1);
            let first = Addr::from_line_index(first);
            for tile in 0..tiles {
                let lines: Vec<Addr> = map.lines_homed_at(tile, first, count).collect();
                let run = map.homed_run(tile, first, count);
                assert_eq!(
                    run,
                    lines.first().map(|&a| (a, lines.len() as u64)),
                    "{tiles} tiles, tile {tile}, {count} lines from {first}"
                );
            }
        }
    }

    #[test]
    fn banks_cycle_within_tile() {
        let map = AddressMap::new(8, 2, 4);
        // Lines 0 and 8 share tile 0 but use different banks.
        let a = Addr::from_line_index(0);
        let b = Addr::from_line_index(8);
        assert_eq!(map.home_tile(a), map.home_tile(b));
        assert_ne!(map.bank_in_tile(a), map.bank_in_tile(b));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Addr(0xABC0).to_string(), "0xabc0");
    }

    #[test]
    #[should_panic]
    fn zero_tiles_rejected() {
        let _ = AddressMap::new(0, 1, 1);
    }
}
