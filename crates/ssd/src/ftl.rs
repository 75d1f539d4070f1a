//! Slot-granular flash translation layer.
//!
//! The simulator works on 64-KiB *slots*: one multi-plane page group (the
//! same block/page address across all planes of one die), which is both
//! the unit the paper's root-cause analysis reads (§III-B3) and the unit
//! our traces address. The FTL maps logical slots to physical locations,
//! stripes cold data and writes across dies for parallelism, allocates
//! out-of-place on writes, and reclaims space with greedy garbage
//! collection (relocations are on-die copyback operations whose timing the
//! simulator charges to the owning die).

use std::collections::HashMap;

use rif_flash::geometry::{FlashGeometry, PageKind};

/// A physical slot location: all planes of die `die_linear`, at
/// (`block`, `page`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotLocation {
    /// Global die index in `[0, channels · dies_per_channel)`.
    pub die_linear: usize,
    /// Block index within each plane.
    pub block: usize,
    /// Page index within the block.
    pub page: usize,
}

impl SlotLocation {
    /// The channel this die sits on.
    pub fn channel(&self, g: &FlashGeometry) -> usize {
        self.die_linear % g.channels
    }

    /// The die index within its channel.
    pub fn die_in_channel(&self, g: &FlashGeometry) -> usize {
        self.die_linear / g.channels
    }

    /// A globally unique block identifier (for process-variation hashing
    /// and read-disturb counting).
    pub fn global_block(&self, g: &FlashGeometry) -> u64 {
        self.die_linear as u64 * g.blocks_per_plane as u64 + self.block as u64
    }

    /// The TLC page kind of this slot (page position within the block).
    pub fn kind(&self) -> PageKind {
        match self.page % 3 {
            0 => PageKind::Lsb,
            1 => PageKind::Csb,
            _ => PageKind::Msb,
        }
    }
}

/// Entries per lazily allocated chunk of a [`BlockTable`].
const BLOCK_CHUNK: usize = 64;

/// One `T` per global block id ([`SlotLocation::global_block`]), indexed
/// directly instead of hashed: the id is bounded by the geometry
/// (`channels × dies_per_channel × blocks_per_plane`), so no key can
/// collide. Chunks of [`BLOCK_CHUNK`] entries are allocated on first
/// touch. A run touches a few blocks per die, and a table allocated
/// whole (483 KB per table on the paper geometry) would be zeroed page
/// by page whenever the allocator serves it from recycled heap memory,
/// as it does for every simulator after the first in a process.
#[derive(Debug, Clone)]
pub(crate) struct BlockTable<T> {
    chunks: Vec<Option<Box<[T; BLOCK_CHUNK]>>>,
}

impl<T: Copy + Default> BlockTable<T> {
    /// An all-default table covering every block of `geometry`.
    pub(crate) fn new(geometry: &FlashGeometry) -> Self {
        let blocks = geometry.channels * geometry.dies_per_channel * geometry.blocks_per_plane;
        BlockTable {
            chunks: vec![None; blocks.div_ceil(BLOCK_CHUNK)],
        }
    }

    /// The entry of block `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` lies outside the geometry.
    pub(crate) fn entry(&mut self, id: u64) -> &mut T {
        let id = id as usize;
        let chunk = self.chunks[id / BLOCK_CHUNK]
            .get_or_insert_with(|| Box::new([T::default(); BLOCK_CHUNK]));
        &mut chunk[id % BLOCK_CHUNK]
    }
}

/// Garbage-collection work the simulator must charge to a die: `relocated`
/// slots were moved by on-die copyback and one block was erased.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcWork {
    /// The die that performed the collection.
    pub die_linear: usize,
    /// Number of valid slots relocated (each costs tR + tPROG on-die).
    pub relocated: usize,
}

#[derive(Debug, Clone, Default)]
struct BlockLive {
    /// Live page → slot within this block.
    live: HashMap<usize, u64>,
}

#[derive(Debug, Clone)]
struct DieState {
    /// Next (block, page) for cold-data placement, below `write_base`.
    cold_block: usize,
    cold_page: usize,
    /// Active write block and page cursor, at or above `write_base`.
    write_block: usize,
    write_page: usize,
    /// Blocks in the write region that are full and hold live data.
    full_blocks: Vec<usize>,
    /// Erased write-region blocks ready for allocation.
    free_blocks: Vec<usize>,
}

/// The slot-mapped FTL.
///
/// # Example
///
/// ```
/// use rif_ssd::ftl::Ftl;
/// use rif_flash::FlashGeometry;
///
/// let mut ftl = Ftl::new(FlashGeometry::small());
/// let a = ftl.locate_read(7);
/// assert_eq!(ftl.locate_read(7), a); // stable mapping
/// let (b, _gc) = ftl.write(7);
/// assert_ne!(a, b); // out-of-place update
/// assert_eq!(ftl.locate_read(7), b);
/// ```
#[derive(Debug, Clone)]
pub struct Ftl {
    geometry: FlashGeometry,
    /// Logical slot → location. Slot numbers derive from client offsets,
    /// so this map keeps std's keyed hashing: a fixed hash would let a
    /// client pick colliding slots.
    mapping: HashMap<u64, SlotLocation>,
    dies: Vec<DieState>,
    /// Live-slot tracking for write-region blocks, keyed by (die, block).
    blocks: HashMap<(usize, usize), BlockLive>,
    /// Per-block read counters (read disturb), by global block id.
    read_counts: BlockTable<u64>,
    write_base: usize,
    write_rr: usize,
    relocations: u64,
    erases: u64,
}

impl Ftl {
    /// Builds an FTL over `geometry`, reserving the lower half of each
    /// plane's blocks for cold (pre-trace) data and the upper half for
    /// writes.
    pub fn new(geometry: FlashGeometry) -> Self {
        let n_dies = geometry.channels * geometry.dies_per_channel;
        let write_base = geometry.blocks_per_plane / 2;
        let dies = (0..n_dies)
            .map(|_| DieState {
                cold_block: 0,
                cold_page: 0,
                write_block: write_base,
                write_page: 0,
                full_blocks: Vec::new(),
                free_blocks: (write_base + 1..geometry.blocks_per_plane).collect(),
            })
            .collect();
        Ftl {
            geometry,
            mapping: HashMap::new(),
            dies,
            blocks: HashMap::new(),
            read_counts: BlockTable::new(&geometry),
            write_base,
            write_rr: 0,
            relocations: 0,
            erases: 0,
        }
    }

    /// The geometry this FTL manages.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// Total on-die copyback relocations performed by GC so far.
    pub fn relocations(&self) -> u64 {
        self.relocations
    }

    /// Total block erases performed by GC so far.
    pub fn erases(&self) -> u64 {
        self.erases
    }

    /// Resolves the physical location of `slot` for a read, assigning a
    /// cold-region location on first touch (pre-trace data is assumed
    /// present, striped across dies for parallelism).
    pub fn locate_read(&mut self, slot: u64) -> SlotLocation {
        if let Some(&loc) = self.mapping.get(&slot) {
            return loc;
        }
        let n_dies = self.dies.len();
        let die_linear = (slot % n_dies as u64) as usize;
        let die = &mut self.dies[die_linear];
        let loc = SlotLocation {
            die_linear,
            block: die.cold_block,
            page: die.cold_page,
        };
        die.cold_page += 1;
        if die.cold_page == self.geometry.pages_per_block {
            die.cold_page = 0;
            // Wrap within the cold region: a timing model only needs a
            // stable location per slot, aliasing is harmless.
            die.cold_block = (die.cold_block + 1) % self.write_base.max(1);
        }
        self.mapping.insert(slot, loc);
        loc
    }

    /// Allocates a fresh physical location for a write to `slot`,
    /// invalidating any previous copy. Returns the new location and any
    /// garbage-collection work triggered by the allocation.
    pub fn write(&mut self, slot: u64) -> (SlotLocation, Option<GcWork>) {
        // Invalidate the old copy if it lives in the write region.
        if let Some(old) = self.mapping.get(&slot).copied() {
            if old.block >= self.write_base {
                if let Some(b) = self.blocks.get_mut(&(old.die_linear, old.block)) {
                    b.live.remove(&old.page);
                }
            }
        }

        // Round-robin across dies keeps multi-plane programs balanced.
        let n_dies = self.dies.len();
        let die_linear = self.write_rr % n_dies;
        self.write_rr += 1;

        let mut gc: Option<GcWork> = None;
        // Ensure the active block has room; roll over and collect until a
        // block with free pages is active.
        let mut attempts = 0;
        while self.dies[die_linear].write_page == self.geometry.pages_per_block {
            attempts += 1;
            assert!(
                attempts <= self.dies[die_linear].full_blocks.len() + 2,
                "die {die_linear}: write region has no reclaimable space"
            );
            let full = self.dies[die_linear].write_block;
            self.dies[die_linear].full_blocks.push(full);
            match self.dies[die_linear].free_blocks.pop() {
                Some(b) => {
                    self.dies[die_linear].write_block = b;
                    self.dies[die_linear].write_page = 0;
                }
                None => {
                    let work = self.collect(die_linear);
                    gc = Some(match gc.take() {
                        Some(prev) => GcWork {
                            die_linear,
                            relocated: prev.relocated + work.relocated,
                        },
                        None => work,
                    });
                }
            }
        }

        let die = &mut self.dies[die_linear];
        let loc = SlotLocation {
            die_linear,
            block: die.write_block,
            page: die.write_page,
        };
        die.write_page += 1;
        self.blocks
            .entry((die_linear, loc.block))
            .or_default()
            .live
            .insert(loc.page, slot);
        self.mapping.insert(slot, loc);
        (loc, gc)
    }

    /// Greedy GC on `die_linear`: picks the full block with the fewest
    /// live slots (ties broken by lowest block id, so victim choice never
    /// depends on bookkeeping order), erases it, relocates the survivors
    /// back into it (copyback) in slot order and makes it the active
    /// write block, its cursor starting after the survivors.
    fn collect(&mut self, die_linear: usize) -> GcWork {
        let die = &mut self.dies[die_linear];
        assert!(
            !die.full_blocks.is_empty(),
            "die {die_linear} has no blocks to collect"
        );
        let (idx, &victim) = die
            .full_blocks
            .iter()
            .enumerate()
            .min_by_key(|(_, &b)| {
                (
                    self.blocks
                        .get(&(die_linear, b))
                        .map(|bl| bl.live.len())
                        .unwrap_or(0),
                    b,
                )
            })
            .expect("non-empty");
        die.full_blocks.swap_remove(idx);

        let mut survivors: Vec<u64> = self
            .blocks
            .remove(&(die_linear, victim))
            .map(|b| b.live.into_values().collect())
            .unwrap_or_default();
        // Survivors come out of a HashMap: sort before reassigning pages
        // so the relocated layout is identical across processes.
        survivors.sort_unstable();
        let relocated = survivors.len();
        self.relocations += relocated as u64;
        self.erases += 1;

        // Rewrite survivors into the erased victim block itself.
        let mut live = HashMap::new();
        for (page, slot) in survivors.into_iter().enumerate() {
            let loc = SlotLocation {
                die_linear,
                block: victim,
                page,
            };
            self.mapping.insert(slot, loc);
            live.insert(page, slot);
        }
        let n_live = live.len();
        if n_live > 0 {
            self.blocks.insert((die_linear, victim), BlockLive { live });
        }
        let die = &mut self.dies[die_linear];
        die.write_block = victim;
        die.write_page = n_live;
        GcWork {
            die_linear,
            relocated,
        }
    }

    /// Bumps and returns the read-disturb counter of the block holding
    /// `loc`.
    pub fn note_read(&mut self, loc: SlotLocation) -> u64 {
        let c = self.read_counts.entry(loc.global_block(&self.geometry));
        *c += 1;
        *c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_geometry() -> FlashGeometry {
        FlashGeometry {
            channels: 2,
            dies_per_channel: 1,
            planes_per_die: 4,
            blocks_per_plane: 8,
            pages_per_block: 4,
            page_bytes: 16 * 1024,
        }
    }

    #[test]
    fn gc_layout_is_identical_across_ftl_instances() {
        // Every std HashMap hashes with its own random keys, so any GC
        // decision that leaked iteration order would already differ
        // between two instances in one process (and between the threads
        // of a parallel sweep). Pin that victim choice and survivor
        // layout depend only on the operation sequence.
        let run = || {
            let mut ftl = Ftl::new(tiny_geometry());
            // Overwrite a 24-slot working set in a 32-slot write region
            // in an irregular (hashed) order: victims carry live
            // survivors and candidates tie on live count.
            for i in 0..400u64 {
                ftl.write((i.wrapping_mul(0x9E37_79B9) >> 7) % 24);
            }
            let locs: Vec<SlotLocation> = (0..24u64).map(|s| ftl.locate_read(s)).collect();
            (locs, ftl.relocations(), ftl.erases())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "GC outcome depends on hash iteration order");
        assert!(a.1 > 0, "workload never triggered GC");
    }

    #[test]
    fn cold_mapping_is_stable_and_striped() {
        let mut ftl = Ftl::new(FlashGeometry::small());
        let a = ftl.locate_read(0);
        let b = ftl.locate_read(1);
        let c = ftl.locate_read(0);
        assert_eq!(a, c);
        assert_ne!(a.die_linear, b.die_linear, "consecutive slots share a die");
    }

    #[test]
    fn cold_mapping_fills_pages_sequentially() {
        let mut ftl = Ftl::new(FlashGeometry::small());
        let n_dies = 32;
        let a = ftl.locate_read(0);
        let b = ftl.locate_read(n_dies); // same die, next page
        assert_eq!(a.die_linear, b.die_linear);
        assert_eq!(b.page, a.page + 1);
    }

    #[test]
    fn page_kinds_cycle_within_block() {
        let loc = |page| SlotLocation {
            die_linear: 0,
            block: 0,
            page,
        };
        assert_eq!(loc(0).kind(), PageKind::Lsb);
        assert_eq!(loc(1).kind(), PageKind::Csb);
        assert_eq!(loc(2).kind(), PageKind::Msb);
        assert_eq!(loc(3).kind(), PageKind::Lsb);
    }

    #[test]
    fn writes_are_out_of_place_and_remap() {
        let mut ftl = Ftl::new(FlashGeometry::small());
        let cold = ftl.locate_read(5);
        let (w1, _) = ftl.write(5);
        let (w2, _) = ftl.write(5);
        assert_ne!(cold, w1);
        assert_ne!(w1, w2);
        assert_eq!(ftl.locate_read(5), w2);
        assert!(w1.block >= FlashGeometry::small().blocks_per_plane / 2);
    }

    #[test]
    fn gc_triggers_when_write_region_exhausts() {
        let mut ftl = Ftl::new(tiny_geometry());
        // Write region per die: blocks 4..8 (4 blocks x 4 pages = 16 slots
        // capacity). Overwrite a small working set repeatedly so blocks
        // fill with dead pages and GC can reclaim nearly-empty victims.
        let mut gc_seen = false;
        for round in 0..40 {
            for slot in 0..4u64 {
                let (_, gc) = ftl.write(slot);
                if let Some(work) = gc {
                    gc_seen = true;
                    assert!(work.relocated <= 4, "round {round}: {work:?}");
                }
            }
        }
        assert!(gc_seen, "GC never triggered");
        assert!(ftl.erases() > 0);
        // Mapping still resolves after collections.
        for slot in 0..4u64 {
            let loc = ftl.locate_read(slot);
            assert!(loc.block >= 4);
        }
    }

    #[test]
    fn gc_prefers_emptier_victims() {
        let mut ftl = Ftl::new(tiny_geometry());
        // Fill with distinct slots (all live), then overwrite one block's
        // worth to create dead pages; GC must relocate few slots.
        for slot in 0..24u64 {
            ftl.write(slot);
        }
        let before = ftl.relocations();
        for _ in 0..30 {
            ftl.write(1000);
        }
        let per_gc = (ftl.relocations() - before) as f64 / ftl.erases().max(1) as f64;
        assert!(per_gc < 4.0, "GC relocating too much: {per_gc}");
    }

    #[test]
    fn read_counters_accumulate_per_block() {
        let mut ftl = Ftl::new(FlashGeometry::small());
        let loc = ftl.locate_read(3);
        assert_eq!(ftl.note_read(loc), 1);
        assert_eq!(ftl.note_read(loc), 2);
        let other = ftl.locate_read(4);
        assert_eq!(ftl.note_read(other), 1);
    }

    #[test]
    fn read_counters_cover_every_block_of_the_geometry() {
        // The counters are a table indexed by global block id: the first
        // and last block of the geometry and neighbours across a chunk
        // boundary each count on their own.
        let g = FlashGeometry::small();
        let mut ftl = Ftl::new(g);
        let n_dies = g.channels * g.dies_per_channel;
        let at = |id: usize| SlotLocation {
            die_linear: id / g.blocks_per_plane,
            block: id % g.blocks_per_plane,
            page: 0,
        };
        let locs = [
            at(0),
            at(BLOCK_CHUNK - 1),
            at(BLOCK_CHUNK),
            at(n_dies * g.blocks_per_plane - 1),
        ];
        for (i, &loc) in locs.iter().enumerate() {
            for _ in 0..i {
                ftl.note_read(loc);
            }
        }
        for (i, &loc) in locs.iter().enumerate() {
            assert_eq!(ftl.note_read(loc), i as u64 + 1, "{loc:?}");
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn read_counter_outside_the_geometry_panics() {
        let g = FlashGeometry::small();
        let mut ftl = Ftl::new(g);
        ftl.note_read(SlotLocation {
            die_linear: g.channels * g.dies_per_channel,
            block: 0,
            page: 0,
        });
    }

    #[test]
    fn cold_region_wraps_instead_of_overflowing() {
        let mut ftl = Ftl::new(tiny_geometry());
        // Cold capacity per die is 4 blocks x 4 pages = 16 slots; touch
        // far more and require stable, in-range locations.
        let locs: Vec<SlotLocation> = (0..200u64).map(|s| ftl.locate_read(s)).collect();
        for l in &locs {
            assert!(l.block < 4, "cold slot escaped its region: {l:?}");
        }
        assert_eq!(ftl.locate_read(150), locs[150]);
    }
}
