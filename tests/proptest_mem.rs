//! Property-based tests on the memory-system substrate: cache replacement,
//! directory bookkeeping and address-map structure.

use nocout_repro::substrates::mem::addr::{Addr, AddressMap};
use nocout_repro::substrates::mem::cache::{CacheArray, CacheGeometry, Lookup, TagWord};
use nocout_repro::substrates::mem::directory::LlcSlice;
use nocout_repro::substrates::mem::llc::{LlcConfig, LlcTile};
use nocout_repro::substrates::mem::protocol::CoreId;
use nocout_repro::substrates::workloads::gen::{INSTR_BASE, LLC_DATA_BASE, SHARED_RW_BASE};
use nocout_repro::substrates::workloads::Workload;
use proptest::prelude::*;

fn small_cache<T: TagWord>() -> CacheArray<T> {
    CacheArray::new(CacheGeometry {
        capacity_bytes: 2048, // 8 sets × 4 ways
        ways: 4,
        line_bytes: 64,
    })
}

/// Runs a cache property on both tag words: the L1s' `u64` and the LLC
/// slices' `u32` must model the same cache.
macro_rules! on_both_tag_words {
    ($check:ident($($arg:expr),*)) => {
        $check::<u64>($($arg),*);
        $check::<u32>($($arg),*);
    };
}

fn never_exceeds_capacity<T: TagWord>(lines: &[u64]) {
    let mut c = small_cache::<T>();
    for l in lines {
        let _ = c.insert(Addr::from_line_index(*l), false);
    }
    prop_assert!(c.valid_lines() <= 32, "capacity exceeded: {}", c.valid_lines());
}

fn inserted_is_present<T: TagWord>(lines: &[u64]) {
    let mut c = small_cache::<T>();
    for l in lines {
        let a = Addr::from_line_index(*l);
        c.insert(a, false);
        prop_assert_eq!(c.probe(a), Lookup::Hit);
    }
}

fn victims_were_inserted<T: TagWord>(lines: &[u64]) {
    let mut c = small_cache::<T>();
    let mut inserted = std::collections::HashSet::new();
    for l in lines {
        let a = Addr::from_line_index(*l);
        if let Some(ev) = c.insert(a, false) {
            prop_assert!(
                inserted.contains(&ev.addr.line_index()),
                "victim {} was never inserted",
                ev.addr
            );
            prop_assert_ne!(ev.addr.line_index(), *l, "cannot evict the incoming line");
        }
        inserted.insert(*l);
    }
}

fn mru_survives<T: TagWord>(tag: u64) {
    let mut c = small_cache::<T>();
    // Line indices in the same set: set = line & 7 with 8 sets.
    let base = tag % 8;
    let fill: Vec<u64> = (0..4u64).map(|i| base + i * 8).collect();
    for &l in &fill {
        c.insert(Addr::from_line_index(l), false);
    }
    // Touch the first line, insert a conflicting fifth: the touched line
    // must survive.
    let protected = Addr::from_line_index(fill[0]);
    c.lookup(protected);
    c.insert(Addr::from_line_index(base + 4 * 8), false);
    prop_assert_eq!(c.probe(protected), Lookup::Hit);
}

fn dirty_is_never_lost<T: TagWord>(ops: &[(u64, bool)]) {
    // Every line marked dirty must either still be present-dirty or have
    // been reported as a dirty eviction.
    let mut c = small_cache::<T>();
    let mut dirty_out = 0usize;
    let mut dirty_in = std::collections::HashSet::new();
    for (l, write) in ops {
        let a = Addr::from_line_index(*l);
        if c.probe(a) == Lookup::Hit {
            if *write {
                c.mark_dirty(a);
                dirty_in.insert(*l);
            }
        } else if let Some(ev) = c.insert(a, *write) {
            if ev.dirty {
                dirty_out += 1;
                dirty_in.remove(&ev.addr.line_index());
            }
        } else if *write {
            dirty_in.insert(*l);
        }
        if *write && c.probe(a) == Lookup::Hit {
            c.mark_dirty(a);
            dirty_in.insert(*l);
        }
    }
    let mut still_dirty = 0usize;
    for l in &dirty_in {
        let (present, dirty) = c.invalidate(Addr::from_line_index(*l));
        if present && dirty {
            still_dirty += 1;
        }
    }
    // All tracked dirty lines are accounted: present-dirty or evicted.
    prop_assert!(still_dirty + dirty_out >= dirty_in.len().saturating_sub(dirty_out));
}

/// `warm_fill` against the insert loop it stands for, then both under the
/// same traffic, answer by answer (victims included).
fn warm_fill_is_the_insert_loop<T: TagWord>(
    geometry: CacheGeometry,
    ranges: &[(u64, u64)],
    span: u64,
    ops: &[(u8, u64, bool)],
) {
    let mut filled = CacheArray::<T>::new(geometry);
    filled.warm_fill(ranges);
    let mut looped = CacheArray::<T>::new(geometry);
    for &(first, count) in ranges {
        for line in first..first + count {
            looped.insert(Addr::from_line_index(line), false);
        }
    }
    prop_assert_eq!(&filled, &looped);
    for &(kind, line, dirty) in ops {
        let a = Addr::from_line_index(line % span);
        match kind {
            0 => prop_assert_eq!(filled.lookup(a), looped.lookup(a)),
            1 => prop_assert_eq!(filled.insert(a, dirty), looped.insert(a, dirty)),
            _ => prop_assert_eq!(filled.invalidate(a), looped.invalidate(a)),
        }
    }
    prop_assert_eq!(&filled, &looped);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_never_exceeds_capacity(lines in prop::collection::vec(0u64..4096, 1..300)) {
        on_both_tag_words!(never_exceeds_capacity(&lines));
    }

    #[test]
    fn inserted_line_is_immediately_present(lines in prop::collection::vec(0u64..4096, 1..100)) {
        on_both_tag_words!(inserted_is_present(&lines));
    }

    #[test]
    fn eviction_reports_a_previously_inserted_line(lines in prop::collection::vec(0u64..512, 1..200)) {
        on_both_tag_words!(victims_were_inserted(&lines));
    }

    #[test]
    fn mru_line_survives_one_insertion(tag in 0u64..64) {
        on_both_tag_words!(mru_survives(tag));
    }

    #[test]
    fn dirty_data_is_never_silently_lost(ops in prop::collection::vec((0u64..64, any::<bool>()), 1..200)) {
        on_both_tag_words!(dirty_is_never_lost(&ops));
    }

    #[test]
    fn address_map_is_a_partition(tiles in 1usize..16, banks in 1usize..4, lines in prop::collection::vec(0u64..100_000, 1..200)) {
        let map = AddressMap::new(tiles, banks, 4);
        for l in &lines {
            let a = Addr::from_line_index(*l);
            prop_assert!(map.home_tile(a) < tiles);
            prop_assert!(map.bank_in_tile(a) < banks);
            prop_assert!(map.memory_channel(a) < 4);
            // Same line always maps to the same place.
            prop_assert_eq!(map.home_tile(a), map.home_tile(a));
        }
    }

    #[test]
    fn directory_add_remove_is_balanced(ops in prop::collection::vec((0u8..3, 0u64..32, 0u16..8), 1..200)) {
        // A 2-set × 2-way slice under a 32-line space: most tracked lines
        // are not resident and live in the side list, fills move them
        // into ways, and evictions drop the state of the lines they push
        // out.
        let mut dir = LlcSlice::new(CacheGeometry {
            capacity_bytes: 256,
            ways: 2,
            line_bytes: 64,
        });
        let mut model: std::collections::HashMap<u64, std::collections::HashSet<u16>> =
            std::collections::HashMap::new();
        for (op, line, core) in &ops {
            let a = Addr::from_line_index(*line);
            match op {
                0 => {
                    dir.add_sharer(a, CoreId(*core));
                    model.entry(*line).or_default().insert(*core);
                }
                1 => {
                    dir.remove_core(a, CoreId(*core));
                    if let Some(s) = model.get_mut(line) {
                        s.remove(core);
                        if s.is_empty() {
                            model.remove(line);
                        }
                    }
                }
                _ => {
                    if let Some(victim) = dir.install(a, false) {
                        model.remove(&victim.addr.line_index());
                    }
                }
            }
            prop_assert_eq!(dir.tracked_lines(), model.len());
        }
    }

    #[test]
    fn warm_fill_equals_the_insert_loop(
        ways in 1usize..17,
        sets_log2 in 0u32..7,
        base in 0u64..1000,
        // (gap before the range, its length in percent of the array's
        // capacity, sort key): one to four ranges, together sometimes well
        // past capacity so sets over-subscribe and wrap to way 0.
        cuts in prop::collection::vec((0u64..40, 0u64..80, 0u32..1000), 1..5),
        ops in prop::collection::vec((0u8..3, 0u64..10_000, any::<bool>()), 300..301)
    ) {
        let capacity = (ways as u64) << sets_log2;
        let geometry = CacheGeometry { capacity_bytes: capacity * 64, ways, line_bytes: 64 };
        let mut end = base;
        let mut ranges: Vec<(u32, (u64, u64))> = cuts
            .iter()
            .map(|&(gap, percent, key)| {
                let range = (end + gap, (capacity * percent).div_ceil(100));
                end = range.0 + range.1;
                (key, range)
            })
            .collect();
        // Disjoint, not sorted: the chip's regions are not ascending.
        ranges.sort_by_key(|&(key, _)| key);
        let ranges: Vec<(u64, u64)> = ranges.into_iter().map(|(_, r)| r).collect();

        on_both_tag_words!(warm_fill_is_the_insert_loop(geometry, &ranges, end + 16, &ops));
    }
}

#[test]
#[should_panic(expected = "never-used")]
fn warm_fill_refuses_an_array_that_has_seen_a_lookup() {
    let mut c = small_cache::<u64>();
    c.lookup(Addr(0));
    c.warm_fill(&[(0, 4)]);
}

#[test]
#[should_panic(expected = "overlap")]
fn warm_fill_refuses_overlapping_ranges() {
    small_cache::<u64>().warm_fill(&[(8, 4), (0, 9)]);
}

/// The chip warms each LLC tile with `warm_fill`; `LlcTile::warm`, line by
/// line, is what that replaced and what defines the warmed state. Both
/// chip geometries, every tile, every profile's three regions in the
/// chip's order — which is not ascending: SHARED_RW sits below LLC_DATA.
#[test]
fn llc_warm_fill_equals_per_line_warm() {
    for (cfg, tiles) in [
        (LlcConfig::tiled_slice(), 64),
        (LlcConfig::nocout_tile(), 8),
    ] {
        let map = AddressMap::new(tiles, 1, 4);
        for workload in Workload::ALL {
            let p = workload.profile();
            let regions = [
                (INSTR_BASE, p.instr_footprint_lines as u64),
                (LLC_DATA_BASE, p.llc_resident_lines as u64),
                (SHARED_RW_BASE, p.shared_rw_lines as u64),
            ];
            for tile in 0..tiles {
                let mut filled = LlcTile::new(cfg.at_position(tile, tiles));
                let runs: Vec<(Addr, u64)> = regions
                    .iter()
                    .filter_map(|&(base, lines)| map.homed_run(tile, Addr(base), lines))
                    .collect();
                filled.warm_fill(&runs);
                let mut looped = LlcTile::new(cfg.at_position(tile, tiles));
                for (base, lines) in regions {
                    for addr in map.lines_homed_at(tile, Addr(base), lines) {
                        looped.warm(addr);
                    }
                }
                assert_eq!(
                    format!("{filled:?}"),
                    format!("{looped:?}"),
                    "{workload:?}, tile {tile} of {tiles}"
                );
            }
        }
    }
}
