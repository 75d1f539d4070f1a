//! Hybrid SLC/QLC flash subsystem: cell-mode regions, reliability-aware
//! migration, and the background-traffic work model (DESIGN §14).
//!
//! Modern high-density SSDs run part of the array as an SLC-mode write
//! cache in front of QLC capacity blocks. Writes land in SLC (huge V_TH
//! margin, effectively error-free); a migration policy later drains the
//! cache to QLC via on-die copyback. RARO-style *reliability-aware*
//! migration prefers cold, long-unwritten data and accounts for the
//! destination's RBER before converting. All of that traffic — SLC→QLC
//! migration, garbage collection, and periodic refresh rewrites — becomes
//! real die work that contends with foreground reads, which is exactly
//! the regime where early retry (RiF) pays most: retries are costlier
//! (QLC's 15 read levels, higher RBER) and the dies are busier.
//!
//! [`HybridFtl`] owns the slot mapping and region bookkeeping;
//! [`AmpTable`] converts the calibrated TLC error model to other cell
//! modes via precomputed RBER amplification ratios (the same
//! QLC/TLC-ratio methodology as the `ablation_qlc` study); the
//! background scheduler half lives in the simulator, driven by
//! [`BgConfig`].

use std::collections::{HashMap, HashSet, VecDeque};

use rif_events::SimDuration;
use rif_flash::geometry::FlashGeometry;
use rif_flash::mlc::MlcModel;
use rif_flash::vth::OperatingPoint;

use crate::ftl::{BlockTable, GcWork, SlotLocation};

/// Cell mode of a flash region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellMode {
    /// 1 bit/cell cache mode (SLC-programmed TLC/QLC blocks).
    Slc,
    /// 3 bits/cell — the paper's baseline device.
    Tlc,
    /// 4 bits/cell, 15 read levels.
    Qlc,
}

impl CellMode {
    /// Short label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            CellMode::Slc => "slc",
            CellMode::Tlc => "tlc",
            CellMode::Qlc => "qlc",
        }
    }

    /// The V_TH model of this mode.
    pub fn model(&self) -> MlcModel {
        match self {
            CellMode::Slc => MlcModel::slc_like(),
            CellMode::Tlc => MlcModel::tlc(),
            CellMode::Qlc => MlcModel::qlc(),
        }
    }
}

/// Kind of a background die operation (trace span name / metric label).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BgKind {
    /// Garbage-collection relocation + erase.
    Gc,
    /// SLC→QLC cache drain (on-die copyback).
    Migrate,
    /// Retention refresh rewrite.
    Refresh,
}

impl BgKind {
    /// The trace span name emitted while a die executes this work.
    pub fn span_name(&self) -> &'static str {
        match self {
            BgKind::Gc => "gc",
            BgKind::Migrate => "migrate",
            BgKind::Refresh => "refresh",
        }
    }
}

/// How the cache-drain policy picks and gates migrations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MigrationPolicy {
    /// Oldest-written slots first, unconditionally.
    Fifo,
    /// RARO-style: oldest (coldest) slots first, but background drain is
    /// deferred while the destination QLC RBER — evaluated at half the
    /// refresh interval, the expected residence before the next rewrite —
    /// exceeds `dest_rber_margin` × the ECC correction capability.
    /// Write-pressure evictions ignore the gate (the cache must not
    /// overflow).
    ReliabilityAware {
        /// Destination-RBER budget as a multiple of the ECC capability.
        dest_rber_margin: f64,
    },
}

/// Background-traffic scheduler knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BgConfig {
    /// Scheduler period.
    pub tick: SimDuration,
    /// Maximum slots migrated per tick.
    pub migrate_batch: usize,
    /// Cache occupancy that starts a background drain.
    pub high_watermark: f64,
    /// Occupancy at which a running drain stops.
    pub low_watermark: f64,
    /// Refresh interval in retention days (0 disables refresh traffic).
    pub refresh_interval_days: f64,
    /// Slots whose age is examined per tick by the refresh scan.
    pub refresh_scan_batch: usize,
    /// Foreground-preempts policy: arriving read senses jump ahead of
    /// queued background die commands (they never preempt other reads or
    /// host programs).
    pub fg_priority: bool,
}

impl Default for BgConfig {
    fn default() -> Self {
        BgConfig {
            tick: SimDuration::from_us(200),
            migrate_batch: 32,
            high_watermark: 0.5,
            low_watermark: 0.3,
            refresh_interval_days: 30.0,
            refresh_scan_batch: 64,
            fg_priority: true,
        }
    }
}

/// Full hybrid-subsystem configuration, carried by
/// [`crate::SsdConfig::hybrid`]. `None` there keeps the device a pure
/// TLC SSD, byte-identical to the pre-hybrid simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridConfig {
    /// Fraction of each die's write region run in SLC mode (0 disables
    /// the cache: writes land directly in capacity blocks).
    pub cache_fraction: f64,
    /// Cell mode of the capacity (non-cache) blocks.
    pub capacity_mode: CellMode,
    /// Cache-drain policy.
    pub migration: MigrationPolicy,
    /// Background scheduler knobs.
    pub bg: BgConfig,
}

impl HybridConfig {
    /// A pure QLC device: no SLC cache, every block 4 bits/cell.
    pub fn qlc() -> Self {
        HybridConfig {
            cache_fraction: 0.0,
            capacity_mode: CellMode::Qlc,
            migration: MigrationPolicy::Fifo,
            bg: BgConfig::default(),
        }
    }

    /// The default hybrid device: a quarter of the write region as SLC
    /// cache in front of QLC capacity, drained reliability-aware.
    pub fn slc_qlc() -> Self {
        HybridConfig {
            cache_fraction: 0.25,
            capacity_mode: CellMode::Qlc,
            migration: MigrationPolicy::ReliabilityAware {
                dest_rber_margin: 2.0,
            },
            bg: BgConfig::default(),
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range fractions, an SLC capacity mode, inverted
    /// watermarks, or degenerate scheduler knobs.
    pub fn validate(&self) {
        assert!(
            (0.0..=0.9).contains(&self.cache_fraction),
            "cache fraction {} outside [0, 0.9]",
            self.cache_fraction
        );
        assert!(
            self.capacity_mode != CellMode::Slc,
            "capacity region cannot run in SLC mode"
        );
        assert!(
            (0.0..=1.0).contains(&self.high_watermark())
                && (0.0..=1.0).contains(&self.bg.low_watermark)
                && self.bg.low_watermark <= self.high_watermark(),
            "watermarks must satisfy 0 <= low <= high <= 1"
        );
        assert!(!self.bg.tick.is_zero(), "bg tick must be positive");
        assert!(self.bg.migrate_batch > 0, "migrate batch must be positive");
        assert!(
            self.bg.refresh_interval_days >= 0.0,
            "refresh interval must be non-negative"
        );
        if let MigrationPolicy::ReliabilityAware { dest_rber_margin } = self.migration {
            assert!(dest_rber_margin > 0.0, "dest RBER margin must be positive");
        }
    }

    fn high_watermark(&self) -> f64 {
        self.bg.high_watermark
    }
}

/// One slot moved from the SLC cache to a capacity block (an on-die
/// copyback the simulator charges to the owning die).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationWork {
    /// The migrated slot.
    pub slot: u64,
    /// The die that performs the copyback.
    pub die_linear: usize,
    /// Invalidated SLC location.
    pub from: SlotLocation,
    /// New capacity-region location.
    pub to: SlotLocation,
    /// Capacity-region GC triggered by the destination allocation.
    pub gc: Option<GcWork>,
}

/// Result of a hybrid write: the new location plus any background work
/// the allocation forced (GC, cache-overflow evictions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Where the slot now lives.
    pub loc: SlotLocation,
    /// GC triggered by the allocation itself.
    pub gc: Option<GcWork>,
    /// Cache-overflow evictions performed to make room (forced
    /// migrations; empty unless the SLC region was full of live data).
    pub evicted: Vec<MigrationWork>,
}

#[derive(Debug, Clone, Default)]
struct BlockLive {
    live: HashMap<usize, u64>,
}

/// A per-die allocation region: an active block with a page cursor, full
/// blocks awaiting GC, and erased free blocks.
#[derive(Debug, Clone)]
struct Region {
    active: usize,
    page: usize,
    full: Vec<usize>,
    free: Vec<usize>,
}

impl Region {
    fn new(start: usize, end: usize) -> Self {
        Region {
            active: start,
            page: 0,
            full: Vec::new(),
            free: (start + 1..end).collect(),
        }
    }
}

#[derive(Debug, Clone)]
struct HybridDie {
    cold_block: usize,
    cold_page: usize,
    /// SLC cache region (`None` when `cache_fraction == 0`).
    slc: Option<Region>,
    /// Capacity-mode write/migration-destination region.
    cap: Region,
    /// Live slots currently resident in this die's SLC region.
    slc_live: usize,
    /// Cache residents in write order: `(seq, slot)`; entries go stale
    /// when a slot is rewritten or migrated and are skipped lazily.
    fifo: VecDeque<(u64, u64)>,
}

/// The hybrid FTL: cold QLC region, capacity write region, and an
/// optional SLC cache region per die, with SLC→QLC migration.
///
/// # Example
///
/// ```
/// use rif_ssd::hybrid::HybridFtl;
/// use rif_flash::FlashGeometry;
///
/// let mut ftl = HybridFtl::new(FlashGeometry::small(), 0.25);
/// let out = ftl.write(7);
/// assert!(ftl.is_cached(7));
/// let w = ftl.migrate(7).expect("cache resident migrates");
/// assert_eq!(w.slot, 7);
/// assert!(!ftl.is_cached(7));
/// assert_eq!(ftl.locate_read(7), w.to);
/// assert_ne!(out.loc, w.to);
/// ```
#[derive(Debug, Clone)]
pub struct HybridFtl {
    geometry: FlashGeometry,
    /// Logical slot → location. Slot-keyed maps keep std's keyed hashing
    /// (slot numbers derive from client offsets; see [`crate::ftl::Ftl`]).
    mapping: HashMap<u64, SlotLocation>,
    dies: Vec<HybridDie>,
    blocks: HashMap<(usize, usize), BlockLive>,
    /// Per-block read counters (read disturb), by global block id.
    read_counts: BlockTable<u64>,
    /// Slots ever touched, in first-touch order (the refresh scan's
    /// deterministic iteration universe).
    touched: Vec<u64>,
    /// Cache membership: slot → its live fifo sequence number.
    cached: HashMap<u64, u64>,
    write_base: usize,
    /// First SLC-mode block index (== `blocks_per_plane` when no cache).
    slc_base: usize,
    write_rr: usize,
    seq: u64,
    migrations: u64,
    relocations: u64,
    erases: u64,
}

impl HybridFtl {
    /// Builds a hybrid FTL: the lower half of each plane's blocks holds
    /// cold (pre-trace) capacity data, and `cache_fraction` of the write
    /// half runs in SLC mode (at least one block when the fraction is
    /// positive).
    ///
    /// # Panics
    ///
    /// Panics unless `cache_fraction` is in `[0, 0.9]` and the geometry
    /// leaves at least two capacity write blocks per die.
    pub fn new(geometry: FlashGeometry, cache_fraction: f64) -> Self {
        assert!(
            (0.0..=0.9).contains(&cache_fraction),
            "cache fraction {cache_fraction} outside [0, 0.9]"
        );
        let n_dies = geometry.channels * geometry.dies_per_channel;
        let write_base = geometry.blocks_per_plane / 2;
        let write_blocks = geometry.blocks_per_plane - write_base;
        let slc_blocks = if cache_fraction == 0.0 {
            0
        } else {
            ((cache_fraction * write_blocks as f64).round() as usize).clamp(1, write_blocks - 2)
        };
        let slc_base = geometry.blocks_per_plane - slc_blocks;
        assert!(
            slc_base - write_base >= 2,
            "need at least two capacity write blocks per die"
        );
        let dies = (0..n_dies)
            .map(|_| HybridDie {
                cold_block: 0,
                cold_page: 0,
                slc: (slc_blocks > 0).then(|| Region::new(slc_base, geometry.blocks_per_plane)),
                cap: Region::new(write_base, slc_base),
                slc_live: 0,
                fifo: VecDeque::new(),
            })
            .collect();
        HybridFtl {
            geometry,
            mapping: HashMap::new(),
            dies,
            blocks: HashMap::new(),
            read_counts: BlockTable::new(&geometry),
            touched: Vec::new(),
            cached: HashMap::new(),
            write_base,
            slc_base,
            write_rr: 0,
            seq: 0,
            migrations: 0,
            relocations: 0,
            erases: 0,
        }
    }

    /// The geometry this FTL manages.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// SLC cache blocks per die.
    pub fn slc_blocks_per_die(&self) -> usize {
        self.geometry.blocks_per_plane - self.slc_base
    }

    /// The cell mode of a physical location.
    pub fn mode_of(&self, loc: SlotLocation, capacity_mode: CellMode) -> CellMode {
        if loc.block >= self.slc_base {
            CellMode::Slc
        } else {
            capacity_mode
        }
    }

    /// True when `slot`'s current copy lives in the SLC cache.
    pub fn is_cached(&self, slot: u64) -> bool {
        self.cached.contains_key(&slot)
    }

    /// Live slots resident in the cache.
    pub fn cached_slots(&self) -> usize {
        self.cached.len()
    }

    /// Total cache capacity in slots.
    pub fn cache_capacity_slots(&self) -> usize {
        self.dies.len() * self.slc_blocks_per_die() * self.geometry.pages_per_block
    }

    /// Cache occupancy in `[0, 1]` (0 when there is no cache).
    pub fn cache_occupancy(&self) -> f64 {
        let cap = self.cache_capacity_slots();
        if cap == 0 {
            0.0
        } else {
            self.cached.len() as f64 / cap as f64
        }
    }

    /// SLC→QLC migrations performed.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// GC copyback relocations performed.
    pub fn relocations(&self) -> u64 {
        self.relocations
    }

    /// Block erases performed.
    pub fn erases(&self) -> u64 {
        self.erases
    }

    /// Slots ever touched, in first-touch order (deterministic across
    /// runs — the refresh scan iterates this).
    pub fn touched(&self) -> &[u64] {
        &self.touched
    }

    /// Resolves `slot` for a read, assigning a cold capacity-region
    /// location on first touch.
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
            die.cold_block = (die.cold_block + 1) % self.write_base.max(1);
        }
        self.mapping.insert(slot, loc);
        self.touched.push(slot);
        loc
    }

    /// Bumps and returns the read-disturb counter of `loc`'s block.
    pub fn note_read(&mut self, loc: SlotLocation) -> u64 {
        let c = self.read_counts.entry(loc.global_block(&self.geometry));
        *c += 1;
        *c
    }

    /// Writes `slot`: the new copy lands in the SLC cache (or directly in
    /// the capacity region without one), invalidating any previous copy.
    /// A full cache forcibly evicts its oldest residents first.
    pub fn write(&mut self, slot: u64) -> WriteOutcome {
        if let Some(old) = self.mapping.get(&slot).copied() {
            self.invalidate(old);
            self.cached.remove(&slot);
        } else {
            self.touched.push(slot);
        }
        let n_dies = self.dies.len();
        let die_linear = self.write_rr % n_dies;
        self.write_rr += 1;

        let mut evicted = Vec::new();
        let (loc, gc) = if self.dies[die_linear].slc.is_some() {
            // Cache-overflow safety valve: when this die's SLC region is
            // entirely live, evict its oldest residents to capacity.
            let die_cap = self.slc_blocks_per_die() * self.geometry.pages_per_block;
            while self.dies[die_linear].slc_live >= die_cap {
                let victim = self
                    .oldest_cached_on_die(die_linear)
                    .expect("a full cache has residents");
                let w = self.migrate(victim).expect("resident migrates");
                evicted.push(w);
            }
            let (loc, gc) = self.alloc(die_linear, true);
            self.seq += 1;
            self.cached.insert(slot, self.seq);
            self.dies[die_linear].fifo.push_back((self.seq, slot));
            self.dies[die_linear].slc_live += 1;
            (loc, gc)
        } else {
            self.alloc(die_linear, false)
        };
        self.blocks
            .entry((die_linear, loc.block))
            .or_default()
            .live
            .insert(loc.page, slot);
        self.mapping.insert(slot, loc);
        WriteOutcome { loc, gc, evicted }
    }

    /// Up to `batch` migration candidates, globally oldest-written first
    /// (the cold end of every die's cache). Stale fifo entries are
    /// garbage-collected as a side effect.
    pub fn migration_candidates(&mut self, batch: usize) -> Vec<u64> {
        let mut found: Vec<(u64, u64)> = Vec::new();
        for die in &mut self.dies {
            let mut taken = 0;
            let mut i = 0;
            while i < die.fifo.len() && taken < batch {
                let (seq, slot) = die.fifo[i];
                if self.cached.get(&slot) == Some(&seq) {
                    found.push((seq, slot));
                    taken += 1;
                    i += 1;
                } else if i == 0 {
                    die.fifo.pop_front();
                } else {
                    i += 1;
                }
            }
        }
        found.sort_unstable();
        found.truncate(batch);
        found.into_iter().map(|(_, s)| s).collect()
    }

    /// Migrates a cache-resident `slot` to a capacity block on the same
    /// die (on-die copyback). Returns `None` when the slot is not in the
    /// cache (already migrated, rewritten, or never written).
    pub fn migrate(&mut self, slot: u64) -> Option<MigrationWork> {
        self.cached.remove(&slot)?;
        let from = *self.mapping.get(&slot).expect("cached slot is mapped");
        debug_assert!(from.block >= self.slc_base, "cached slot outside SLC");
        self.invalidate(from);
        let die_linear = from.die_linear;
        let (to, gc) = self.alloc(die_linear, false);
        self.blocks
            .entry((die_linear, to.block))
            .or_default()
            .live
            .insert(to.page, slot);
        self.mapping.insert(slot, to);
        self.migrations += 1;
        Some(MigrationWork {
            slot,
            die_linear,
            from,
            to,
            gc,
        })
    }

    /// Removes the live entry for an old copy and releases a fully dead,
    /// non-active SLC block back to the free list (background erase).
    fn invalidate(&mut self, old: SlotLocation) {
        if old.block < self.write_base {
            return; // cold region copies are never reclaimed
        }
        let key = (old.die_linear, old.block);
        let emptied = match self.blocks.get_mut(&key) {
            Some(b) => {
                b.live.remove(&old.page);
                b.live.is_empty()
            }
            None => false,
        };
        let in_slc = old.block >= self.slc_base;
        if in_slc {
            self.dies[old.die_linear].slc_live -= 1;
        }
        if emptied && in_slc {
            let region = self.dies[old.die_linear]
                .slc
                .as_mut()
                .expect("SLC block implies a cache region");
            if let Some(i) = region.full.iter().position(|&b| b == old.block) {
                region.full.swap_remove(i);
                region.free.push(old.block);
                self.blocks.remove(&key);
                self.erases += 1;
            }
        }
    }

    /// The oldest live cache resident on `die_linear`.
    fn oldest_cached_on_die(&mut self, die_linear: usize) -> Option<u64> {
        let die = &mut self.dies[die_linear];
        while let Some(&(seq, slot)) = die.fifo.front() {
            if self.cached.get(&slot) == Some(&seq) {
                return Some(slot);
            }
            die.fifo.pop_front();
        }
        None
    }

    /// Allocates the next page in a die's SLC or capacity region, running
    /// region-local greedy GC when the free list runs dry.
    fn alloc(&mut self, die_linear: usize, slc: bool) -> (SlotLocation, Option<GcWork>) {
        let mut gc: Option<GcWork> = None;
        let mut attempts = 0;
        let pages_per_block = self.geometry.pages_per_block;
        loop {
            let region = self.region_mut(die_linear, slc);
            if region.page < pages_per_block {
                let loc = SlotLocation {
                    die_linear,
                    block: region.active,
                    page: region.page,
                };
                region.page += 1;
                return (loc, gc);
            }
            attempts += 1;
            let full_len = self.region_mut(die_linear, slc).full.len();
            assert!(
                attempts <= full_len + 2,
                "die {die_linear}: {} region has no reclaimable space",
                if slc { "slc" } else { "capacity" }
            );
            let active = self.region_mut(die_linear, slc).active;
            self.region_mut(die_linear, slc).full.push(active);
            match self.region_mut(die_linear, slc).free.pop() {
                Some(b) => {
                    let region = self.region_mut(die_linear, slc);
                    region.active = b;
                    region.page = 0;
                }
                None => {
                    let work = self.collect(die_linear, slc);
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
    }

    fn region_mut(&mut self, die_linear: usize, slc: bool) -> &mut Region {
        let die = &mut self.dies[die_linear];
        if slc {
            die.slc.as_mut().expect("SLC allocation without a cache")
        } else {
            &mut die.cap
        }
    }

    /// Region-local greedy GC: the fullest-dead block (ties broken by
    /// block id) is erased and its survivors relocated back into it in
    /// slot order — fully deterministic.
    fn collect(&mut self, die_linear: usize, slc: bool) -> GcWork {
        let victim = {
            let blocks = &self.blocks;
            let region = {
                let die = &self.dies[die_linear];
                if slc {
                    die.slc.as_ref().expect("SLC GC without a cache")
                } else {
                    &die.cap
                }
            };
            assert!(
                !region.full.is_empty(),
                "die {die_linear}: nothing to collect"
            );
            *region
                .full
                .iter()
                .min_by_key(|&&b| {
                    (
                        blocks
                            .get(&(die_linear, b))
                            .map(|bl| bl.live.len())
                            .unwrap_or(0),
                        b,
                    )
                })
                .expect("non-empty")
        };
        let region = self.region_mut(die_linear, slc);
        let i = region
            .full
            .iter()
            .position(|&b| b == victim)
            .expect("victim is full");
        region.full.swap_remove(i);

        let mut survivors: Vec<u64> = self
            .blocks
            .remove(&(die_linear, victim))
            .map(|b| b.live.into_values().collect())
            .unwrap_or_default();
        survivors.sort_unstable();
        let relocated = survivors.len();
        self.relocations += relocated as u64;
        self.erases += 1;

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
        let region = self.region_mut(die_linear, slc);
        region.active = victim;
        region.page = n_live;
        GcWork {
            die_linear,
            relocated,
        }
    }

    /// Audits every internal invariant; the property suite calls this
    /// after arbitrary operation interleavings.
    ///
    /// Checks: mapping totality and bounds, no two slots sharing a
    /// physical location, block live-tables consistent with the mapping,
    /// cache membership exactly the live SLC population, and occupancy
    /// within capacity.
    pub fn check_integrity(&self) -> Result<(), String> {
        let mut seen: HashSet<(usize, usize, usize)> = HashSet::new();
        for (&slot, &loc) in &self.mapping {
            if loc.die_linear >= self.dies.len()
                || loc.block >= self.geometry.blocks_per_plane
                || loc.page >= self.geometry.pages_per_block
            {
                return Err(format!("slot {slot} mapped out of bounds: {loc:?}"));
            }
            if !seen.insert((loc.die_linear, loc.block, loc.page)) {
                return Err(format!("location {loc:?} holds two live slots"));
            }
            if loc.block >= self.write_base {
                let ok = self
                    .blocks
                    .get(&(loc.die_linear, loc.block))
                    .and_then(|b| b.live.get(&loc.page))
                    == Some(&slot);
                if !ok {
                    return Err(format!("slot {slot} missing from live table at {loc:?}"));
                }
            }
            let in_slc = loc.block >= self.slc_base;
            if in_slc != self.cached.contains_key(&slot) {
                return Err(format!(
                    "slot {slot} cache membership disagrees with location {loc:?}"
                ));
            }
        }
        for (&(die, block), bl) in &self.blocks {
            for (&page, &slot) in &bl.live {
                let loc = SlotLocation {
                    die_linear: die,
                    block,
                    page,
                };
                if self.mapping.get(&slot) != Some(&loc) {
                    return Err(format!("stale live entry {loc:?} for slot {slot}"));
                }
            }
        }
        let slc_live_total: usize = self.dies.iter().map(|d| d.slc_live).sum();
        if slc_live_total != self.cached.len() {
            return Err(format!(
                "slc_live total {slc_live_total} != cached {}",
                self.cached.len()
            ));
        }
        if self.cached.len() > self.cache_capacity_slots() {
            return Err(format!(
                "cache holds {} slots, capacity {}",
                self.cached.len(),
                self.cache_capacity_slots()
            ));
        }
        Ok(())
    }
}

/// Precomputed RBER amplification of non-TLC cell modes relative to the
/// calibrated TLC error model, tabulated over retention age at a fixed
/// wear stage. The simulator multiplies every TLC-model RBER by the
/// mode's factor — the same QLC/TLC-ratio methodology the `ablation_qlc`
/// study reports, made cheap and deterministic with a day-granular table.
#[derive(Debug, Clone)]
pub struct AmpTable {
    /// `qlc[d]` = QLC/TLC page-averaged RBER ratio at `d` retention days.
    qlc: Vec<f64>,
    /// `slc[d]` = SLC/TLC ratio at `d` days.
    slc: Vec<f64>,
}

impl AmpTable {
    /// Builds the table for `pe_cycles`, covering ages up to
    /// `horizon_days` (clamped lookups beyond).
    pub fn build(pe_cycles: u32, horizon_days: f64) -> Self {
        let days = (horizon_days.max(1.0).ceil() as usize).max(8) + 1;
        let tlc = CellMode::Tlc.model();
        let qlc_m = CellMode::Qlc.model();
        let slc_m = CellMode::Slc.model();
        let mut qlc = Vec::with_capacity(days);
        let mut slc = Vec::with_capacity(days);
        for d in 0..days {
            let op = OperatingPoint::new(pe_cycles, d as f64);
            let t = tlc.rber_avg(op, 1.0).max(1e-12);
            qlc.push(qlc_m.rber_avg(op, 1.0) / t);
            slc.push(slc_m.rber_avg(op, 1.0) / t);
        }
        AmpTable { qlc, slc }
    }

    /// The amplification factor of `mode` at `age_days` (linear
    /// interpolation, clamped to the tabulated range). TLC is exactly 1.
    pub fn factor(&self, mode: CellMode, age_days: f64) -> f64 {
        let table = match mode {
            CellMode::Tlc => return 1.0,
            CellMode::Qlc => &self.qlc,
            CellMode::Slc => &self.slc,
        };
        let a = age_days.max(0.0);
        let i = a.floor() as usize;
        if i + 1 >= table.len() {
            return table[table.len() - 1];
        }
        let frac = a - i as f64;
        table[i] * (1.0 - frac) + table[i + 1] * frac
    }
}

/// Hard ceiling applied to amplified RBERs: past this the decode model's
/// behaviour is saturated anyway, and capping keeps every downstream
/// probability well-defined.
pub const AMPLIFIED_RBER_CAP: f64 = 0.4;

/// Floor applied to amplified RBERs. The SLC V_TH model's state margin is
/// wide enough that its raw RBER underflows to exactly 0, and a zero RBER
/// poisons ratio-based scheme math downstream (`0 * (0/0)^w` is NaN in
/// SWR+'s V_REF tracking). One error per 10¹² bits is "error-free" to
/// every consumer while keeping the arithmetic finite.
pub const AMPLIFIED_RBER_FLOOR: f64 = 1e-12;

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FlashGeometry {
        FlashGeometry::small()
    }

    #[test]
    fn config_presets_validate() {
        HybridConfig::qlc().validate();
        HybridConfig::slc_qlc().validate();
    }

    #[test]
    #[should_panic(expected = "cache fraction")]
    fn config_rejects_oversized_cache() {
        let mut c = HybridConfig::slc_qlc();
        c.cache_fraction = 0.95;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "SLC mode")]
    fn config_rejects_slc_capacity() {
        let mut c = HybridConfig::qlc();
        c.capacity_mode = CellMode::Slc;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "watermarks")]
    fn config_rejects_inverted_watermarks() {
        let mut c = HybridConfig::slc_qlc();
        c.bg.low_watermark = 0.8;
        c.bg.high_watermark = 0.5;
        c.validate();
    }

    #[test]
    fn writes_land_in_slc_and_migrate_to_capacity() {
        let mut ftl = HybridFtl::new(small(), 0.25);
        let out = ftl.write(42);
        assert_eq!(ftl.mode_of(out.loc, CellMode::Qlc), CellMode::Slc);
        assert!(ftl.is_cached(42));
        let w = ftl.migrate(42).expect("migrates");
        assert_eq!(w.die_linear, w.from.die_linear);
        assert_eq!(w.die_linear, w.to.die_linear, "copyback stays on-die");
        assert_eq!(ftl.mode_of(w.to, CellMode::Qlc), CellMode::Qlc);
        assert!(!ftl.is_cached(42));
        assert_eq!(ftl.locate_read(42), w.to);
        assert_eq!(ftl.migrations(), 1);
        ftl.check_integrity().unwrap();
    }

    #[test]
    fn zero_cache_fraction_writes_directly_to_capacity() {
        let mut ftl = HybridFtl::new(small(), 0.0);
        let out = ftl.write(7);
        assert_eq!(ftl.mode_of(out.loc, CellMode::Qlc), CellMode::Qlc);
        assert!(!ftl.is_cached(7));
        assert_eq!(ftl.cache_capacity_slots(), 0);
        assert_eq!(ftl.cache_occupancy(), 0.0);
        assert!(ftl.migrate(7).is_none());
        ftl.check_integrity().unwrap();
    }

    #[test]
    fn cold_reads_resolve_in_capacity_region() {
        let mut ftl = HybridFtl::new(small(), 0.25);
        let loc = ftl.locate_read(9);
        assert_eq!(ftl.mode_of(loc, CellMode::Qlc), CellMode::Qlc);
        assert_eq!(ftl.locate_read(9), loc, "stable mapping");
        ftl.check_integrity().unwrap();
    }

    #[test]
    fn migration_candidates_are_oldest_first() {
        let mut ftl = HybridFtl::new(small(), 0.25);
        for slot in 0..10u64 {
            ftl.write(slot);
        }
        // Rewriting slot 0 makes it the *youngest* resident.
        ftl.write(0);
        let c = ftl.migration_candidates(3);
        assert_eq!(c, vec![1, 2, 3]);
        // Candidates are a view, not a mutation.
        assert_eq!(ftl.cached_slots(), 10);
        ftl.check_integrity().unwrap();
    }

    #[test]
    fn full_cache_forces_evictions_instead_of_failing() {
        let g = FlashGeometry {
            channels: 2,
            dies_per_channel: 1,
            planes_per_die: 4,
            blocks_per_plane: 8,
            pages_per_block: 4,
            page_bytes: 16 * 1024,
        };
        // Write half: blocks 4..8; 25 % cache → 1 SLC block → 4 slots/die.
        let mut ftl = HybridFtl::new(g, 0.25);
        assert_eq!(ftl.slc_blocks_per_die(), 1);
        let mut evictions = 0;
        for round in 0..2 {
            for slot in 0..16u64 {
                let out = ftl.write(slot);
                evictions += out.evicted.len();
                ftl.check_integrity()
                    .unwrap_or_else(|e| panic!("round {round} slot {slot}: {e}"));
            }
        }
        assert!(evictions > 0, "full cache never evicted");
        assert!(ftl.cached_slots() <= ftl.cache_capacity_slots());
        // Every slot still resolves.
        for slot in 0..16u64 {
            let _ = ftl.locate_read(slot);
        }
        ftl.check_integrity().unwrap();
    }

    #[test]
    fn rewriting_cached_slot_keeps_single_copy() {
        let mut ftl = HybridFtl::new(small(), 0.25);
        for _ in 0..100 {
            ftl.write(5);
        }
        assert!(ftl.is_cached(5));
        assert_eq!(ftl.cached_slots(), 1);
        ftl.check_integrity().unwrap();
    }

    #[test]
    fn capacity_gc_reclaims_dead_migrated_copies() {
        let g = FlashGeometry {
            channels: 2,
            dies_per_channel: 1,
            planes_per_die: 4,
            blocks_per_plane: 8,
            pages_per_block: 4,
            page_bytes: 16 * 1024,
        };
        let mut ftl = HybridFtl::new(g, 0.0);
        // Overwrite a small working set until GC must run.
        for _ in 0..40 {
            for slot in 0..4u64 {
                ftl.write(slot);
            }
        }
        assert!(ftl.erases() > 0, "capacity GC never ran");
        ftl.check_integrity().unwrap();
    }

    #[test]
    fn emptied_slc_blocks_are_erased_and_reused() {
        let g = FlashGeometry {
            channels: 1,
            dies_per_channel: 1,
            planes_per_die: 4,
            blocks_per_plane: 16,
            pages_per_block: 4,
            page_bytes: 16 * 1024,
        };
        // Write half: 8 blocks; 50 % cache → 4 SLC blocks, 16 slots.
        let mut ftl = HybridFtl::new(g, 0.5);
        for slot in 0..8u64 {
            ftl.write(slot);
        }
        // Drain everything: two whole SLC blocks empty out.
        for slot in 0..8u64 {
            ftl.migrate(slot);
        }
        assert!(ftl.erases() >= 1, "no SLC block reclaimed");
        assert_eq!(ftl.cached_slots(), 0);
        ftl.check_integrity().unwrap();
    }

    #[test]
    fn amp_table_orders_modes_correctly() {
        let t = AmpTable::build(1000, 30.0);
        for age in [0.0, 5.0, 14.5, 29.0, 60.0] {
            let slc = t.factor(CellMode::Slc, age);
            let tlc = t.factor(CellMode::Tlc, age);
            let qlc = t.factor(CellMode::Qlc, age);
            assert_eq!(tlc, 1.0);
            assert!(slc < 0.01, "age {age}: SLC factor {slc} not tiny");
            assert!(qlc > 3.0, "age {age}: QLC factor {qlc} not > 3");
        }
    }

    #[test]
    fn amp_table_interpolates_between_days() {
        let t = AmpTable::build(500, 10.0);
        let a = t.factor(CellMode::Qlc, 3.0);
        let b = t.factor(CellMode::Qlc, 4.0);
        let mid = t.factor(CellMode::Qlc, 3.5);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        assert!(
            (lo..=hi).contains(&mid),
            "midpoint {mid} outside [{lo}, {hi}]"
        );
    }

    #[test]
    fn bg_kind_span_names() {
        assert_eq!(BgKind::Gc.span_name(), "gc");
        assert_eq!(BgKind::Migrate.span_name(), "migrate");
        assert_eq!(BgKind::Refresh.span_name(), "refresh");
    }
}
