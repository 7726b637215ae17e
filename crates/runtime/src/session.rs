//! The [`DeviceSession`]: one device cache for uploaded fact columns and
//! built hash tables.
//!
//! A session wraps a [`Gpu`] for the duration of a query stream. Engines
//! request fact columns through [`DeviceSession::try_column`] and dimension
//! hash tables through [`DeviceSession::try_hash_table`]; the first request
//! uploads (or builds) and caches, later requests hit the cache and cost
//! nothing — no PCIe transfer, no build kernel.
//!
//! ## One entry list, one victim order
//!
//! Columns and tables live in **one** list of entries, keyed by which of
//! the two they are, and share every step of the cache's life: one hit
//! path (`touch`), one `insert`, one `pin`, one victim selection, one
//! release. Each entry carries the simulated seconds it would take to
//! recreate (PCIe transfer time for a column, build-kernel time for a
//! table) and its GreedyDual-Size priority `h = L + cost / bytes`, where
//! `L` is the inflation value at its last use; the victim under memory
//! pressure is the evictable entry lowest in the one order `(h, last_use)`
//! — so a cheap, stale column is dropped before an expensive, equally stale
//! hash table, and `last_use` (unique per touch) makes the order strict.
//!
//! Only what genuinely differs stays per kind, in the two miss paths: a
//! column miss allocates and uploads (retrying after each eviction), prices
//! itself on the session's link and records the DMA and its copy events; a
//! table miss frees `2 x estimated_bytes` of device headroom *before* it
//! runs the caller's build closure, because the closure allocates
//! infallibly, and prices itself at the build kernel's simulated seconds.
//!
//! ## Pinning
//!
//! Two mechanisms keep an in-use entry out of the evictor's reach:
//!
//! * **`Rc` holds** — entries are handed out as [`Rc`] clones; an entry
//!   whose `Rc` is still held is never evicted. This covers the
//!   run-to-completion engines, which hold their clones for the duration
//!   of one `execute` call.
//! * **Ledger pins** — a concurrent frontend interleaving many queries
//!   registers each query with [`DeviceSession::begin_query`] and acquires
//!   its working set through [`DeviceSession::pin_column`] /
//!   [`DeviceSession::pin_hash_table`]. The entry stays pinned until the
//!   matching [`DeviceSession::end_query`], *independent of any `Rc`
//!   clones*, so a yielded query that holds no live borrow still cannot
//!   lose its working set to a competing tenant.
//!
//! Eviction arbitrates only between entries neither mechanism protects;
//! when every cached byte is protected, a request returns a typed
//! [`SessionOom`] instead of panicking — the signal an admission controller
//! uses to defer a query instead of crashing the server. Every request is
//! fallible that way; [`DeviceSession::column`] alone keeps a panicking
//! form, because the benchmark harness pins it.
//!
//! Dropping the session frees every unprotected cached buffer, so a
//! transient one-query-per-session use is exactly the
//! upload/execute/free lifecycle. A clone that escapes the session's
//! lifetime keeps its entry's device bytes charged against the [`Gpu`]
//! forever (there is no safe point to free them); engines therefore drop
//! their clones before returning.

use std::fmt;
use std::rc::Rc;

use crystal_core::hash::DeviceHashTable;
use crystal_core::kernels::packed::DevicePackedColumn;
use crystal_core::primitives::{block_load, block_load_sel};
use crystal_core::tile::Tile;
use crystal_gpu_sim::exec::BlockCtx;
use crystal_gpu_sim::mem::{DeviceBuffer, OutOfDeviceMemory};
use crystal_gpu_sim::stats::KernelReport;
use crystal_gpu_sim::stream::CopyEvents;
use crystal_gpu_sim::Gpu;
use crystal_hardware::{pcie_gen3, GpuSpec, PcieSpec};
use crystal_storage::bitpack::PackedColumn;
use crystal_storage::encoding::Encoding;

use crystal_core::kernels::packed::{block_load_packed, block_load_sel_packed};

/// Cache key of one device-resident column: the fingerprint of the
/// dataset it came from, a caller-assigned column id, and the physical
/// [`Encoding`] it was uploaded under. The same logical column packed at
/// two widths is two distinct entries — a query stream mixing plain and
/// packed runs keeps both warm independently.
///
/// The `dataset` fingerprint is what makes one session safe to share
/// across tenants replaying *different* datasets: without it, tenant B's
/// request for "column 3" would silently hit tenant A's cached bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnKey {
    /// Fingerprint of the dataset the column belongs to (0 for callers
    /// that genuinely manage a single dataset, e.g. unit tests).
    pub dataset: u64,
    /// Caller-assigned column identifier (e.g. a `FactCol` index).
    pub col: u32,
    /// Physical encoding of the cached upload.
    pub encoding: Encoding,
}

impl ColumnKey {
    /// Key of a plain 4-byte upload of column `col` in the dataset with
    /// the given fingerprint.
    pub fn for_dataset(dataset: u64, col: u32) -> Self {
        ColumnKey {
            dataset,
            col,
            encoding: Encoding::Plain,
        }
    }
}

/// Typed out-of-memory error: the session could not satisfy a request
/// because everything evictable is already gone — every remaining cached
/// byte is pinned by an in-flight query (or the request simply exceeds
/// the device). Returned by every request; an admission controller treats
/// it as "defer this query until a tenant finishes".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOom {
    /// Bytes the failed request needed.
    pub requested: usize,
    /// Cached bytes currently pinned (by ledgers or live `Rc` clones).
    pub pinned_bytes: usize,
    /// Total cached bytes, pinned or not.
    pub cached_bytes: usize,
    /// Bytes still free on the device.
    pub device_free: usize,
}

impl fmt::Display for SessionOom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "session out of memory: {} bytes requested, {} free on device, \
             {} of {} cached bytes pinned by in-flight queries",
            self.requested, self.device_free, self.pinned_bytes, self.cached_bytes
        )
    }
}

impl std::error::Error for SessionOom {}

/// Token identifying one in-flight query's pin ledger (see
/// [`DeviceSession::begin_query`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryId(u64);

/// A fact column resident on the device in either physical format.
#[derive(Debug)]
pub enum DeviceCol {
    /// Plain 4-byte values.
    Plain(DeviceBuffer<i32>),
    /// Bit-packed word stream.
    Packed(DevicePackedColumn),
}

impl DeviceCol {
    /// The plain buffer; panics on a packed column (for engines that only
    /// request plain uploads).
    pub fn plain(&self) -> &DeviceBuffer<i32> {
        match self {
            DeviceCol::Plain(b) => b,
            DeviceCol::Packed(_) => panic!("expected a plain device column"),
        }
    }

    /// Full-tile load with per-format dispatch (`BlockLoad` /
    /// `BlockLoadPacked`).
    #[inline]
    pub fn load_full(&self, ctx: &mut BlockCtx<'_>, start: usize, len: usize, out: &mut Tile<i32>) {
        match self {
            DeviceCol::Plain(b) => block_load(ctx, b, start, len, out),
            DeviceCol::Packed(p) => block_load_packed(ctx, p, start, len, out),
        }
    }

    /// Selective load of the listed `lanes` of a tile, with per-format
    /// dispatch (`BlockLoadSel` / `BlockLoadSelPacked`).
    #[inline]
    pub fn load_sel(
        &self,
        ctx: &mut BlockCtx<'_>,
        start: usize,
        len: usize,
        lanes: &[u16],
        out: &mut Tile<i32>,
    ) {
        match self {
            DeviceCol::Plain(b) => block_load_sel(ctx, b, start, len, lanes, out),
            DeviceCol::Packed(p) => block_load_sel_packed(ctx, p, start, len, lanes, out),
        }
    }

    fn free(self, gpu: &mut Gpu) {
        match self {
            DeviceCol::Plain(b) => gpu.free(b),
            DeviceCol::Packed(p) => p.free(gpu),
        }
    }
}

/// Host-side source a column cache miss uploads from.
#[derive(Debug, Clone, Copy)]
pub enum HostCol<'a> {
    /// Plain 4-byte values.
    Plain(&'a [i32]),
    /// A bit-packed column (ships as its raw word stream).
    Packed(&'a PackedColumn),
}

impl HostCol<'_> {
    /// Bytes the upload moves over the interconnect.
    pub fn size_bytes(&self) -> usize {
        match self {
            HostCol::Plain(v) => std::mem::size_of_val(*v),
            HostCol::Packed(p) => std::mem::size_of_val(p.words()),
        }
    }
}

/// Cache counters of one [`DeviceSession`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionStats {
    /// Column requests served from the cache.
    pub col_hits: u64,
    /// Column requests that had to upload.
    pub col_misses: u64,
    /// Hash-table requests served from the memo.
    pub ht_hits: u64,
    /// Hash-table requests that had to build.
    pub ht_misses: u64,
    /// Entries evicted under memory pressure.
    pub evictions: u64,
    /// Cumulative host-to-device bytes shipped by column misses — the
    /// uncached transfer volume a coprocessor-model query actually pays.
    pub uploaded_bytes: u64,
    /// Cumulative simulated seconds of memoized build kernels actually run
    /// (misses only).
    pub build_secs: f64,
    /// Bytes currently held by cached entries.
    pub cached_bytes: usize,
}

impl SessionStats {
    /// Hits over all requests, columns and hash tables together
    /// (1.0 for an all-warm replay, 0 when nothing was requested).
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.col_hits + self.ht_hits;
        let total = hits + self.col_misses + self.ht_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// What the session counted since an `earlier` snapshot of its stats:
    /// every counter as a delta, `cached_bytes` (a level, not a count) as
    /// it stands now — like `ExecStats::since` for the device's counters.
    pub fn since(&self, earlier: &SessionStats) -> SessionStats {
        SessionStats {
            col_hits: self.col_hits - earlier.col_hits,
            col_misses: self.col_misses - earlier.col_misses,
            ht_hits: self.ht_hits - earlier.ht_hits,
            ht_misses: self.ht_misses - earlier.ht_misses,
            evictions: self.evictions - earlier.evictions,
            uploaded_bytes: self.uploaded_bytes - earlier.uploaded_bytes,
            build_secs: self.build_secs - earlier.build_secs,
            cached_bytes: self.cached_bytes,
        }
    }

    /// Column bytes uploaded since an earlier snapshot of the same
    /// session's stats — a query's uncached transfer volume.
    pub fn uploaded_since(&self, earlier: &SessionStats) -> usize {
        self.since(earlier).uploaded_bytes as usize
    }
}

/// Counters add (the deltas of one query, or the sessions of one replay);
/// `cached_bytes` is the later operand's level.
impl std::ops::AddAssign<&SessionStats> for SessionStats {
    fn add_assign(&mut self, later: &SessionStats) {
        self.col_hits += later.col_hits;
        self.col_misses += later.col_misses;
        self.ht_hits += later.ht_hits;
        self.ht_misses += later.ht_misses;
        self.evictions += later.evictions;
        self.uploaded_bytes += later.uploaded_bytes;
        self.build_secs += later.build_secs;
        self.cached_bytes = later.cached_bytes;
    }
}

/// What a cache entry — and a ledger pin on it — is keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheKey {
    Col(ColumnKey),
    Table(u64),
}

/// The cached resource of either kind, as the `Rc` handed out on a hit.
#[derive(Clone)]
enum Resource {
    Col(Rc<DeviceCol>),
    Table(Rc<DeviceHashTable>),
}

/// One cached resource plus its GreedyDual-Size bookkeeping.
struct Entry {
    res: Resource,
    bytes: usize,
    /// Simulated seconds to recreate the entry on a future miss.
    cost: f64,
    /// GreedyDual-Size priority: inflation at last use + cost density.
    h: f64,
    /// Monotonic last-use tick — the LRU tiebreak between entries whose
    /// priorities are equal (the inflation value only rises on evictions,
    /// so equal-density entries would otherwise tie).
    last_use: u64,
    /// Live pin-ledger references (one per `pin_*` call by an in-flight
    /// query; balanced by `end_query`).
    pins: u32,
}

impl Entry {
    /// GreedyDual-Size priority of an entry used at inflation `clock`.
    fn priority(clock: f64, cost: f64, bytes: usize) -> f64 {
        clock + cost / bytes.max(1) as f64
    }

    /// An entry may be evicted only when no query ledger pins it *and* no
    /// handed-out `Rc` clone is alive — the cache's own `Rc` is then the
    /// last, which is what lets `release` take the resource back.
    fn evictable(&self) -> bool {
        let holders = match &self.res {
            Resource::Col(rc) => Rc::strong_count(rc),
            Resource::Table(rc) => Rc::strong_count(rc),
        };
        self.pins == 0 && holders == 1
    }
}

/// A device buffer manager bound to one [`Gpu`] (see the module docs).
pub struct DeviceSession<'g> {
    gpu: &'g mut Gpu,
    pcie: PcieSpec,
    budget: usize,
    /// GreedyDual-Size inflation value `L` (rises to the priority of each
    /// evicted entry, aging everything resident).
    clock: f64,
    /// Monotonic request counter feeding `Entry::last_use`.
    seq: u64,
    // A Vec, not a HashMap: entry counts are tens at most, linear lookup is
    // cheap, and iteration order stays deterministic.
    entries: Vec<(CacheKey, Entry)>,
    /// Per-query pin ledgers: what each in-flight query holds, unwound as
    /// one unit by `end_query`.
    ledger: Vec<(u64, Vec<CacheKey>)>,
    next_query: u64,
    stats: SessionStats,
    /// Copy-stream events of uploads recorded since the last
    /// [`DeviceSession::take_pending_copy`]: the merged first-chunk /
    /// drain times a dependent kernel gates on.
    pending_copy: Option<CopyEvents>,
}

impl<'g> DeviceSession<'g> {
    /// Fraction of device memory the cache may occupy by default; the
    /// remainder is headroom for per-query scratch (aggregate tables,
    /// survivor flags, build-side staging).
    pub(crate) const DEFAULT_BUDGET_FRACTION: f64 = 0.75;

    /// A session over `gpu` with the default cache budget
    /// (`Self::DEFAULT_BUDGET_FRACTION` of the device's capacity) on a
    /// PCIe Gen3 interconnect ([`Self::open`] for another).
    pub fn new(gpu: &'g mut Gpu) -> Self {
        Self::open(gpu, None, &pcie_gen3())
    }

    /// A session on PCIe Gen3 whose cache may hold at most `budget` bytes
    /// (scratch allocations live outside the budget but inside the
    /// device's capacity).
    pub fn with_budget(gpu: &'g mut Gpu, budget: usize) -> Self {
        Self::open(gpu, Some(budget), &pcie_gen3())
    }

    /// A session for a machine described by parts: its cache capped at
    /// `budget` bytes if any (the default budget otherwise), on `pcie` —
    /// the one link every upload is priced on: its DMA seconds and
    /// copy-stream events, the re-upload cost the eviction policy ranks by,
    /// and the transfer seconds of the queries that run through the session.
    /// [`Self::new`] and [`Self::with_budget`] are on PCIe Gen3; whoever
    /// opens a session for another machine says so here.
    pub fn open(gpu: &'g mut Gpu, budget: Option<usize>, pcie: &PcieSpec) -> Self {
        let default = gpu.spec().mem_capacity as f64 * Self::DEFAULT_BUDGET_FRACTION;
        DeviceSession {
            gpu,
            pcie: pcie.clone(),
            budget: budget.unwrap_or(default as usize),
            clock: 0.0,
            seq: 0,
            entries: Vec::new(),
            ledger: Vec::new(),
            next_query: 0,
            stats: SessionStats::default(),
            pending_copy: None,
        }
    }

    /// The link the session's uploads cross.
    pub fn interconnect(&self) -> &PcieSpec {
        &self.pcie
    }

    /// The underlying device, e.g. to launch kernels.
    pub fn gpu(&mut self) -> &mut Gpu {
        self.gpu
    }

    /// The device's hardware description.
    pub fn spec(&self) -> &GpuSpec {
        self.gpu.spec()
    }

    /// The cache budget in bytes.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes still unallocated on the device — what a prefetcher can
    /// stage without evicting anything.
    pub fn device_free_bytes(&self) -> usize {
        self.gpu.spec().mem_capacity - self.gpu.mem_used()
    }

    /// Cache counters so far.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    fn entry(&self, key: CacheKey) -> Option<&Entry> {
        self.entries.iter().find(|(k, _)| *k == key).map(|(_, e)| e)
    }

    fn entry_mut(&mut self, key: CacheKey) -> Option<&mut Entry> {
        let found = self.entries.iter_mut().find(|(k, _)| *k == key);
        found.map(|(_, e)| e)
    }

    /// Bytes of `keys` already resident in the cache — the term the
    /// residency-aware placement model subtracts from a query's transfer
    /// volume.
    pub fn resident_bytes(&self, keys: &[ColumnKey]) -> usize {
        let bytes = |k: &ColumnKey| self.entry(CacheKey::Col(*k)).map_or(0, |e| e.bytes);
        keys.iter().map(bytes).sum()
    }

    /// Whether a column is currently resident.
    pub fn is_resident(&self, key: ColumnKey) -> bool {
        self.entry(CacheKey::Col(key)).is_some()
    }

    /// Cached bytes currently pinned — by a query ledger or by a live
    /// `Rc` clone. An admission controller compares
    /// `budget - pinned_bytes` against a query's estimated working set.
    pub(crate) fn pinned_bytes(&self) -> usize {
        let pinned = self.entries.iter().filter(|(_, e)| !e.evictable());
        pinned.map(|(_, e)| e.bytes).sum()
    }

    // ---- per-query pin ledger ----

    /// Opens a pin ledger for one query. Every `pin_column` /
    /// `pin_hash_table` under the returned id stays pinned — immune to
    /// eviction — until the matching [`DeviceSession::end_query`], even
    /// while the query is yielded and holds no live `Rc`.
    pub fn begin_query(&mut self) -> QueryId {
        self.next_query += 1;
        self.ledger.push((self.next_query, Vec::new()));
        QueryId(self.next_query)
    }

    /// Closes a query's pin ledger, unpinning its working set, and trims
    /// the cache back within budget. Idempotent on unknown ids.
    pub fn end_query(&mut self, q: QueryId) {
        if let Some(i) = self.ledger.iter().position(|(id, _)| *id == q.0) {
            for key in self.ledger.remove(i).1 {
                if let Some(e) = self.entry_mut(key) {
                    e.pins -= 1;
                }
            }
        }
        self.trim();
    }

    /// The one pin: `key`'s entry under query `q`'s ledger until
    /// `end_query`, whatever its kind.
    fn pin(&mut self, q: QueryId, key: CacheKey) {
        if let Some(e) = self.entry_mut(key) {
            e.pins += 1;
        }
        let ledger = self.ledger.iter_mut().find(|(id, _)| *id == q.0);
        let (_, held) =
            ledger.expect("pin under a query id that was never begun (or already ended)");
        held.push(key);
    }

    /// Like [`DeviceSession::try_column`], but additionally pins the entry
    /// under query `q`'s ledger until `end_query`.
    pub fn pin_column(
        &mut self,
        q: QueryId,
        key: ColumnKey,
        host: HostCol<'_>,
    ) -> Result<Rc<DeviceCol>, SessionOom> {
        let rc = self.try_column(key, host)?;
        self.pin(q, CacheKey::Col(key));
        Ok(rc)
    }

    /// Like [`DeviceSession::try_hash_table`], but additionally pins the
    /// entry under query `q`'s ledger until `end_query`.
    pub fn pin_hash_table<F>(
        &mut self,
        q: QueryId,
        key: u64,
        estimated_bytes: usize,
        build: F,
    ) -> Result<(Rc<DeviceHashTable>, Option<KernelReport>), SessionOom>
    where
        F: FnOnce(&mut Gpu) -> (DeviceHashTable, KernelReport),
    {
        let out = self.try_hash_table(key, estimated_bytes, build)?;
        self.pin(q, CacheKey::Table(key));
        Ok(out)
    }

    /// Drains the copy-stream events accumulated by uploads since the last
    /// call: the merged first-chunk gate and drain floor the next dependent
    /// kernel should honor. `None` when everything was already resident.
    pub fn take_pending_copy(&mut self) -> Option<CopyEvents> {
        self.pending_copy.take()
    }

    // ---- cache access ----

    /// The one hit path: `key`'s resource, its entry's priority and last
    /// use refreshed; `None` on a miss.
    fn touch(&mut self, key: CacheKey) -> Option<Resource> {
        let (clock, now) = (self.clock, self.seq + 1);
        let e = self.entry_mut(key)?;
        (e.h, e.last_use) = (Entry::priority(clock, e.cost, e.bytes), now);
        let res = e.res.clone();
        self.seq = now;
        Some(res)
    }

    /// The one insert: a fresh, unpinned entry, used now.
    fn insert(&mut self, key: CacheKey, res: Resource, bytes: usize, cost: f64) {
        self.stats.cached_bytes += bytes;
        self.seq += 1;
        let entry = Entry {
            res,
            bytes,
            cost,
            h: Entry::priority(self.clock, cost, bytes),
            last_use: self.seq,
            pins: 0,
        };
        self.entries.push((key, entry));
    }

    /// The panicking form of [`DeviceSession::try_column`], kept because
    /// the benchmark harness pins it: panics if the device cannot fit the
    /// upload even after evicting everything unpinned.
    pub fn column(&mut self, key: ColumnKey, host: HostCol<'_>) -> Rc<DeviceCol> {
        self.try_column(key, host).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Returns the device-resident column for `key`, uploading from `host`
    /// on a miss (evicting colder entries first if the budget requires).
    /// The returned [`Rc`] protects the entry from eviction while held.
    /// A typed [`SessionOom`] when the upload cannot fit because
    /// everything left on the device is pinned.
    pub fn try_column(
        &mut self,
        key: ColumnKey,
        host: HostCol<'_>,
    ) -> Result<Rc<DeviceCol>, SessionOom> {
        if let Some(Resource::Col(col)) = self.touch(CacheKey::Col(key)) {
            self.stats.col_hits += 1;
            return Ok(col);
        }
        let bytes = host.size_bytes();
        self.make_room(bytes);
        let col = loop {
            let attempt = match host {
                HostCol::Plain(v) => self.gpu.try_alloc_from(v).map(DeviceCol::Plain),
                HostCol::Packed(p) => {
                    DevicePackedColumn::try_upload(self.gpu, p).map(DeviceCol::Packed)
                }
            };
            match attempt {
                Ok(c) => break Rc::new(c),
                Err(_) if self.evict_one() => {}
                Err(_) => return Err(self.oom(bytes)),
            }
        };
        self.stats.col_misses += 1;
        self.stats.uploaded_bytes += bytes as u64;
        let cost = self.pcie.transfer_secs(bytes);
        let ev = self.gpu.record_dma(
            self.pcie.chunk_ramp_secs(bytes),
            bytes as f64 / self.pcie.bandwidth,
            cost,
        );
        match &mut self.pending_copy {
            Some(p) => p.merge(ev),
            None => self.pending_copy = Some(ev),
        }
        self.insert(
            CacheKey::Col(key),
            Resource::Col(Rc::clone(&col)),
            bytes,
            cost,
        );
        Ok(col)
    }

    /// Returns the memoized hash table for `key`, running `build` on a
    /// miss. `estimated_bytes` sizes the pre-build eviction pass (for a
    /// perfect-hash dimension table this is `8 * key_range`); the report of
    /// the build kernel is returned only when it actually ran. A typed
    /// [`SessionOom`] when the build's headroom (slot array plus staging,
    /// `2 * estimated_bytes`) cannot be freed by evicting everything
    /// unpinned.
    pub fn try_hash_table<F>(
        &mut self,
        key: u64,
        estimated_bytes: usize,
        build: F,
    ) -> Result<(Rc<DeviceHashTable>, Option<KernelReport>), SessionOom>
    where
        F: FnOnce(&mut Gpu) -> (DeviceHashTable, KernelReport),
    {
        if let Some(Resource::Table(ht)) = self.touch(CacheKey::Table(key)) {
            self.stats.ht_hits += 1;
            return Ok((ht, None));
        }
        self.make_room(estimated_bytes);
        // The build needs device headroom beyond the cache budget: the
        // slot array itself plus its staging buffers (keys + payloads,
        // never larger than the slot array for a perfect-hash table).
        // Evict ahead of time so the allocations inside the build closure
        // cannot OOM: the closure allocates infallibly, so a build that
        // cannot be given its full headroom is refused with the typed
        // error here rather than started and left to panic halfway.
        while self.device_free_bytes() < 2 * estimated_bytes {
            if !self.evict_one() {
                return Err(self.oom(2 * estimated_bytes));
            }
        }
        let (ht, report) = build(self.gpu);
        // Charged by its device reservation, not by what backs it on the host.
        let (bytes, cost) = (ht.size_bytes(), report.time.total_secs());
        let ht = Rc::new(ht);
        self.stats.ht_misses += 1;
        self.stats.build_secs += cost;
        self.insert(
            CacheKey::Table(key),
            Resource::Table(Rc::clone(&ht)),
            bytes,
            cost,
        );
        // The build may have pushed the cache past its budget; trim (the
        // fresh entry is protected by the Rc about to be returned).
        self.trim();
        Ok((ht, Some(report)))
    }

    /// Re-establishes the budget after a query: a running query may pin a
    /// working set larger than the budget (it must, to execute at all);
    /// once its pins drop, this evicts back down. Engines call it as
    /// their last session interaction.
    pub fn trim(&mut self) {
        self.make_room(0);
    }

    /// The [`SessionOom`] describing the session's current pressure for a
    /// request of `requested` bytes.
    fn oom(&self, requested: usize) -> SessionOom {
        SessionOom {
            requested,
            pinned_bytes: self.pinned_bytes(),
            cached_bytes: self.stats.cached_bytes,
            device_free: self.device_free_bytes(),
        }
    }

    /// Evicts until `incoming` more bytes would fit in the budget. Stops
    /// early when everything left is pinned.
    fn make_room(&mut self, incoming: usize) {
        while self.stats.cached_bytes + incoming > self.budget && self.evict_one() {}
    }

    /// The one victim order: the evictable entry lowest in GreedyDual-Size
    /// priority, the least recently used of equals. Pinned entries are
    /// excluded from candidacy before any buffer is touched.
    fn victim(&self) -> Option<usize> {
        let evictable = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, (_, e))| e.evictable());
        evictable
            .min_by(|(_, (_, a)), (_, (_, b))| {
                a.h.total_cmp(&b.h).then(a.last_use.cmp(&b.last_use))
            })
            .map(|(i, _)| i)
    }

    /// Evicts the [`Self::victim`], raising the inflation value to its
    /// priority. Returns false when nothing is evictable.
    fn evict_one(&mut self) -> bool {
        let Some(i) = self.victim() else {
            return false;
        };
        let (_, e) = self.entries.remove(i);
        self.clock = self.clock.max(e.h);
        self.stats.evictions += 1;
        self.release(e);
        true
    }

    /// Frees an evictable entry's device memory and its share of the
    /// cached bytes.
    fn release(&mut self, e: Entry) {
        const SOLE: &str = "an evictable entry has no other holder";
        self.stats.cached_bytes -= e.bytes;
        match e.res {
            Resource::Col(rc) => Rc::into_inner(rc).expect(SOLE).free(self.gpu),
            Resource::Table(rc) => Rc::into_inner(rc).expect(SOLE).free(self.gpu),
        }
    }

    /// Drops every cached entry, freeing its device memory. Entries still
    /// pinned — by outstanding [`Rc`] clones or an open query ledger —
    /// are *retained* (still tracked, still accounted), so the budget
    /// arithmetic stays truthful; they become evictable again once their
    /// pins drop.
    pub(crate) fn clear(&mut self) {
        for (key, e) in std::mem::take(&mut self.entries) {
            if e.evictable() {
                self.release(e);
            } else {
                self.entries.push((key, e));
            }
        }
    }

    // ---- per-query scratch (outside the cache budget) ----

    /// Allocates zero-initialized per-query scratch (aggregate tables,
    /// survivor flags); pair with [`DeviceSession::free_scratch`]. A typed
    /// [`SessionOom`] when it does not fit and nothing evictable remains.
    pub fn try_alloc_scratch_zeroed<T: Copy + Default>(
        &mut self,
        len: usize,
    ) -> Result<DeviceBuffer<T>, SessionOom> {
        self.scratch(len * std::mem::size_of::<T>(), |gpu| {
            gpu.try_alloc_zeroed(len)
        })
    }

    /// [`DeviceSession::try_alloc_scratch_zeroed`] for a table a kernel only
    /// takes the addresses of: the same budget and addresses, no host memory
    /// ([`Gpu::try_alloc_unbacked`]).
    pub fn try_alloc_scratch_unbacked<T: Copy + Default>(
        &mut self,
        len: usize,
    ) -> Result<DeviceBuffer<T>, SessionOom> {
        self.scratch(len * std::mem::size_of::<T>(), |gpu| {
            gpu.try_alloc_unbacked(len)
        })
    }

    /// Retries `alloc` (a request of `bytes`), evicting one entry after each
    /// refusal, until it succeeds or nothing evictable is left.
    fn scratch<T>(
        &mut self,
        bytes: usize,
        mut alloc: impl FnMut(&mut Gpu) -> Result<DeviceBuffer<T>, OutOfDeviceMemory>,
    ) -> Result<DeviceBuffer<T>, SessionOom> {
        loop {
            match alloc(self.gpu) {
                Ok(b) => return Ok(b),
                Err(_) if self.evict_one() => {}
                Err(_) => return Err(self.oom(bytes)),
            }
        }
    }

    /// Frees a scratch buffer.
    pub fn free_scratch<T: Copy + Default>(&mut self, buf: DeviceBuffer<T>) {
        self.gpu.free(buf);
    }
}

impl Drop for DeviceSession<'_> {
    fn drop(&mut self) {
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystal_hardware::nvidia_v100;

    fn small_gpu(capacity: usize) -> Gpu {
        let mut spec = nvidia_v100();
        spec.mem_capacity = capacity;
        Gpu::new(spec)
    }

    #[test]
    fn column_hits_after_first_upload_and_ships_no_new_bytes() {
        let mut gpu = Gpu::new(nvidia_v100());
        let mut s = DeviceSession::new(&mut gpu);
        let data: Vec<i32> = (0..10_000).collect();
        let a = s.column(ColumnKey::for_dataset(0, 0), HostCol::Plain(&data));
        assert_eq!(s.stats().col_misses, 1);
        assert_eq!(s.stats().uploaded_bytes, 40_000);
        drop(a);
        let b = s.column(ColumnKey::for_dataset(0, 0), HostCol::Plain(&data));
        assert_eq!(s.stats().col_hits, 1);
        assert_eq!(s.stats().uploaded_bytes, 40_000, "hit must not re-ship");
        assert_eq!(b.plain().as_slice(), &data[..]);
    }

    #[test]
    fn plain_and_packed_uploads_of_one_column_are_distinct_entries() {
        let mut gpu = Gpu::new(nvidia_v100());
        let mut s = DeviceSession::new(&mut gpu);
        let data: Vec<i32> = (0..4096).collect();
        let packed = PackedColumn::pack(&data, 12).unwrap();
        let _p = s.column(ColumnKey::for_dataset(0, 3), HostCol::Plain(&data));
        let k = ColumnKey {
            dataset: 0,
            col: 3,
            encoding: Encoding::BitPacked { bits: 12 },
        };
        let _q = s.column(k, HostCol::Packed(&packed));
        assert_eq!(s.stats().col_misses, 2);
        assert!(s.is_resident(ColumnKey::for_dataset(0, 3)) && s.is_resident(k));
        assert_eq!(s.stats().cached_bytes, 4096 * 4 + packed.words().len() * 8);
    }

    /// The same column id under two dataset fingerprints is two distinct
    /// entries — the aliasing regression a shared multi-tenant session
    /// used to hit.
    #[test]
    fn same_column_id_different_datasets_do_not_alias() {
        let mut gpu = Gpu::new(nvidia_v100());
        let mut s = DeviceSession::new(&mut gpu);
        let a: Vec<i32> = (0..1000).collect();
        let b: Vec<i32> = (0..1000).map(|v| -v).collect();
        let ka = ColumnKey::for_dataset(0xAAAA, 0);
        let kb = ColumnKey::for_dataset(0xBBBB, 0);
        let ra = s.column(ka, HostCol::Plain(&a));
        let rb = s.column(kb, HostCol::Plain(&b));
        assert_eq!(s.stats().col_misses, 2, "second dataset must not hit");
        assert_eq!(ra.plain().as_slice(), &a[..]);
        assert_eq!(rb.plain().as_slice(), &b[..], "aliased bytes returned");
        drop((ra, rb));
        let again = s.column(kb, HostCol::Plain(&b));
        assert_eq!(s.stats().col_hits, 1);
        assert_eq!(again.plain().as_slice(), &b[..]);
    }

    #[test]
    fn budget_pressure_evicts_lru_and_frees_device_memory() {
        let mut gpu = small_gpu(1 << 20);
        // Budget fits two 256KB columns, not three.
        let mut s = DeviceSession::with_budget(&mut gpu, 600_000);
        let data: Vec<i32> = (0..65_536).collect();
        drop(s.column(ColumnKey::for_dataset(0, 0), HostCol::Plain(&data)));
        drop(s.column(ColumnKey::for_dataset(0, 1), HostCol::Plain(&data)));
        // Touch col 0 so col 1 is the LRU victim.
        drop(s.column(ColumnKey::for_dataset(0, 0), HostCol::Plain(&data)));
        drop(s.column(ColumnKey::for_dataset(0, 2), HostCol::Plain(&data)));
        assert_eq!(s.stats().evictions, 1);
        assert!(s.is_resident(ColumnKey::for_dataset(0, 0)));
        assert!(
            !s.is_resident(ColumnKey::for_dataset(0, 1)),
            "LRU entry evicted"
        );
        assert!(s.is_resident(ColumnKey::for_dataset(0, 2)));
        assert!(s.stats().cached_bytes <= s.budget());
        drop(s);
        assert_eq!(gpu.mem_used(), 0, "session drop frees everything");
    }

    #[test]
    fn pinned_entries_survive_pressure() {
        let mut gpu = small_gpu(1 << 20);
        let mut s = DeviceSession::with_budget(&mut gpu, 600_000);
        let data: Vec<i32> = (0..65_536).collect();
        let pinned = s.column(ColumnKey::for_dataset(0, 0), HostCol::Plain(&data));
        drop(s.column(ColumnKey::for_dataset(0, 1), HostCol::Plain(&data)));
        drop(s.column(ColumnKey::for_dataset(0, 2), HostCol::Plain(&data)));
        // Col 0 is older than col 1 but pinned: col 1 must be the victim.
        assert!(s.is_resident(ColumnKey::for_dataset(0, 0)));
        assert!(!s.is_resident(ColumnKey::for_dataset(0, 1)));
        drop(pinned);
    }

    /// A ledger pin protects an entry even after every `Rc` clone is
    /// dropped — the property a yielded concurrent query depends on.
    #[test]
    fn ledger_pins_survive_pressure_without_live_rcs() {
        let mut gpu = small_gpu(1 << 20);
        let mut s = DeviceSession::with_budget(&mut gpu, 600_000);
        let data: Vec<i32> = (0..65_536).collect();
        let q = s.begin_query();
        drop(
            s.pin_column(q, ColumnKey::for_dataset(0, 0), HostCol::Plain(&data))
                .unwrap(),
        );
        assert!(s.pinned_bytes() >= data.len() * 4);
        drop(s.column(ColumnKey::for_dataset(0, 1), HostCol::Plain(&data)));
        drop(s.column(ColumnKey::for_dataset(0, 2), HostCol::Plain(&data)));
        // Col 0 holds no Rc but is ledger-pinned: col 1 is the victim.
        assert!(
            s.is_resident(ColumnKey::for_dataset(0, 0)),
            "ledger pin ignored"
        );
        assert!(!s.is_resident(ColumnKey::for_dataset(0, 1)));
        s.end_query(q);
        assert_eq!(s.pinned_bytes(), 0);
        // Unpinned now: fresh pressure may evict col 0.
        drop(s.column(ColumnKey::for_dataset(0, 3), HostCol::Plain(&data)));
        drop(s.column(ColumnKey::for_dataset(0, 4), HostCol::Plain(&data)));
        assert!(
            !s.is_resident(ColumnKey::for_dataset(0, 0)),
            "unpinned entry kept"
        );
    }

    /// When every cached byte is pinned the fallible APIs return the
    /// typed [`SessionOom`] — no panic, no `unreachable!`.
    #[test]
    fn exhausted_pins_yield_typed_oom_not_panic() {
        let mut gpu = small_gpu(1 << 20); // 1 MB device
        let mut s = DeviceSession::with_budget(&mut gpu, 1 << 20);
        let data: Vec<i32> = (0..200_000).collect(); // 800 KB
        let q = s.begin_query();
        let _rc = s
            .pin_column(q, ColumnKey::for_dataset(0, 0), HostCol::Plain(&data))
            .unwrap();
        // 800 KB more cannot fit beside the pinned 800 KB on a 1 MB card.
        let err = s.try_column(ColumnKey::for_dataset(0, 1), HostCol::Plain(&data));
        let oom = err.expect_err("second column must not fit");
        assert_eq!(oom.requested, 800_000);
        assert_eq!(oom.pinned_bytes, 800_000);
        assert!(oom.device_free < 800_000);
        // Scratch under the same pressure: typed error too.
        let scratch = s.try_alloc_scratch_zeroed::<i64>(100_000);
        assert!(scratch.is_err());
        // So is a table whose slot array would fit the ~248 KB left but
        // whose build staging would not: the build (which allocates
        // infallibly) is refused, not started.
        let table = s.try_hash_table(9, 200_000, |_| unreachable!("build must not start"));
        assert_eq!(table.err().map(|oom| oom.requested), Some(400_000));
        // The session stays fully usable afterwards.
        s.end_query(q);
        drop(_rc);
        assert!(s
            .try_column(ColumnKey::for_dataset(0, 1), HostCol::Plain(&data))
            .is_ok());
    }

    #[test]
    fn cost_aware_eviction_prefers_cheap_entries() {
        let mut gpu = Gpu::new(nvidia_v100());
        let mut s = DeviceSession::with_budget(&mut gpu, 600_000);
        let data: Vec<i32> = (0..65_536).collect();
        // A hash table whose rebuild cost per byte is far above a column's
        // re-transfer cost per byte survives even when least recent.
        let keys: Vec<i32> = (0..1000).collect();
        let (ht, _) = {
            let g = s.gpu();
            let dk = g.alloc_from(&keys);
            let dv = g.alloc_from(&keys);
            let out = s.try_hash_table(7, 8 * 1000, |g| {
                crystal_core::hash::DeviceHashTable::build(
                    g,
                    &dk,
                    &dv,
                    1000,
                    crystal_core::hash::HashScheme::Perfect { min: 0 },
                )
            });
            // Free the staging buffers through the session's device.
            out.unwrap()
        };
        drop(ht);
        drop(s.column(ColumnKey::for_dataset(0, 0), HostCol::Plain(&data)));
        drop(s.column(ColumnKey::for_dataset(0, 1), HostCol::Plain(&data)));
        drop(s.column(ColumnKey::for_dataset(0, 2), HostCol::Plain(&data)));
        // Pressure evicted at least one column, never the older table.
        assert!(s.stats().evictions >= 1);
        assert!(s.entry(CacheKey::Table(7)).is_some());
    }

    #[test]
    fn hash_table_memoizes_builds() {
        let mut gpu = Gpu::new(nvidia_v100());
        let mut s = DeviceSession::new(&mut gpu);
        let keys: Vec<i32> = (10..110).collect();
        let build = |g: &mut Gpu| {
            let dk = g.alloc_from(&(10..110).collect::<Vec<i32>>());
            let dv = g.alloc_from(&(0..100).collect::<Vec<i32>>());
            let out = crystal_core::hash::DeviceHashTable::build(
                g,
                &dk,
                &dv,
                100,
                crystal_core::hash::HashScheme::Perfect { min: 10 },
            );
            g.free(dk);
            g.free(dv);
            out
        };
        let (t1, r1) = s.try_hash_table(42, 800, build).unwrap();
        assert!(r1.is_some(), "cold build runs the kernel");
        drop(t1);
        let (t2, r2) = s.try_hash_table(42, 800, build).unwrap();
        assert!(r2.is_none(), "warm lookup runs nothing");
        assert_eq!(s.stats().ht_hits, 1);
        assert_eq!(s.stats().ht_misses, 1);
        assert_eq!(t2.num_slots(), 100);
        assert_eq!((t2.size_bytes(), s.stats().cached_bytes), (800, 800));
        assert_eq!(keys.len(), 100);
    }

    #[test]
    fn scratch_is_outside_the_cache_budget_but_can_force_eviction() {
        let mut gpu = small_gpu(1 << 20); // 1 MB device
        let mut s = DeviceSession::with_budget(&mut gpu, 900_000);
        let data: Vec<i32> = (0..200_000).collect(); // 800 KB cached
        drop(s.column(ColumnKey::for_dataset(0, 0), HostCol::Plain(&data)));
        // 400 KB of scratch cannot fit beside it: the column is evicted.
        let buf = s.try_alloc_scratch_zeroed::<i32>(100_000).unwrap();
        assert_eq!(s.stats().evictions, 1);
        assert!(!s.is_resident(ColumnKey::for_dataset(0, 0)));
        s.free_scratch(buf);
    }

    /// `clear` must not orphan pinned entries: they stay tracked and
    /// accounted until their clones drop, then free normally.
    #[test]
    fn clear_retains_pinned_entries_and_keeps_accounting() {
        let mut gpu = Gpu::new(nvidia_v100());
        {
            let mut s = DeviceSession::new(&mut gpu);
            let data: Vec<i32> = (0..1000).collect();
            let pinned = s.column(ColumnKey::for_dataset(0, 0), HostCol::Plain(&data));
            drop(s.column(ColumnKey::for_dataset(0, 1), HostCol::Plain(&data)));
            s.clear();
            assert!(
                s.is_resident(ColumnKey::for_dataset(0, 0)),
                "pinned entry retained"
            );
            assert!(!s.is_resident(ColumnKey::for_dataset(0, 1)));
            assert_eq!(s.stats().cached_bytes, 4000);
            drop(pinned);
            s.clear();
            assert_eq!(s.stats().cached_bytes, 0);
        }
        assert_eq!(gpu.mem_used(), 0);
    }

    /// `clear` also retains ledger-pinned entries (no live `Rc` needed).
    #[test]
    fn clear_retains_ledger_pinned_entries() {
        let mut gpu = Gpu::new(nvidia_v100());
        let mut s = DeviceSession::new(&mut gpu);
        let data: Vec<i32> = (0..1000).collect();
        let q = s.begin_query();
        drop(
            s.pin_column(q, ColumnKey::for_dataset(0, 0), HostCol::Plain(&data))
                .unwrap(),
        );
        s.clear();
        assert!(
            s.is_resident(ColumnKey::for_dataset(0, 0)),
            "ledger pin ignored"
        );
        s.end_query(q);
        s.clear();
        assert_eq!(s.stats().cached_bytes, 0);
    }

    /// The victim order, pinned: a mixed column / hash-table workload of
    /// unequal sizes and costs driven through budget pressure, scratch
    /// pressure and `clear()` with one entry ledger-pinned and one
    /// `Rc`-held, logging what left the cache and the counters after every
    /// step. A 16 000-byte column and a 16 000-byte table are given the
    /// same recreate cost, so their priorities are equal bit for bit and
    /// only `last_use` orders them: the scenario runs once with the table
    /// touched first and once with the column, and the two must leave in
    /// that order. Written against the two-list cache and unchanged since:
    /// it reads only what both forms expose (columns by `is_resident`,
    /// tables by the cached bytes the columns leave unexplained — the
    /// tables' sizes are 8 000 x 1, 2, 4).
    #[test]
    fn victim_order_is_pinned_across_kinds_pins_and_pressures() {
        use crystal_core::hash::HashScheme;
        use crystal_gpu_sim::SimTime;

        const COLS: [(u32, usize); 7] = [
            (0, 160_000),
            (1, 100_000),
            (2, 200_000),
            (3, 16_000),
            (4, 80_000),
            (5, 60_000),
            (6, 24_000),
        ];
        const TABLES: [(u64, usize); 3] = [(101, 8_000), (102, 16_000), (103, 32_000)];

        fn resident(s: &DeviceSession<'_>) -> Vec<String> {
            let mut keys = Vec::new();
            let mut unexplained = s.stats().cached_bytes;
            for (c, bytes) in COLS {
                if s.is_resident(ColumnKey::for_dataset(0, c)) {
                    keys.push(format!("c{c}"));
                    unexplained -= bytes;
                }
            }
            assert_eq!(unexplained % 8_000, 0, "cached bytes fit no table set");
            assert!(unexplained / 8_000 < 8, "cached bytes fit no table set");
            for (i, (t, _)) in TABLES.iter().enumerate() {
                if (unexplained / 8_000) >> i & 1 == 1 {
                    keys.push(format!("t{t}"));
                }
            }
            keys
        }

        fn host(c: u32) -> Vec<i32> {
            vec![7; COLS.iter().find(|(k, _)| *k == c).unwrap().1 / 4]
        }

        fn col(s: &mut DeviceSession<'_>, c: u32) -> Rc<DeviceCol> {
            s.try_column(ColumnKey::for_dataset(0, c), HostCol::Plain(&host(c)))
                .expect("the column fits")
        }

        /// Table `t` of its `TABLES` size; `cost` overrides the build
        /// kernel's simulated seconds.
        fn table(s: &mut DeviceSession<'_>, t: u64, cost: Option<f64>) -> Rc<DeviceHashTable> {
            let slots = TABLES.iter().find(|(k, _)| *k == t).unwrap().1 / 8;
            let out = s.try_hash_table(t, 8 * slots, |g| {
                let keys: Vec<i32> = (0..slots as i32).collect();
                let (dk, dv) = (g.alloc_from(&keys), g.alloc_from(&keys));
                let scheme = HashScheme::Perfect { min: 0 };
                let (ht, mut report) = DeviceHashTable::build(g, &dk, &dv, slots, scheme);
                g.free(dk);
                g.free(dv);
                if let Some(secs) = cost {
                    report.time = SimTime {
                        hbm: secs,
                        ..SimTime::default()
                    };
                }
                (ht, report)
            });
            out.expect("the table's headroom fits").0
        }

        fn scenario(table_touched_first: bool) -> Vec<String> {
            let mut gpu = small_gpu(1 << 20);
            let mut log = Vec::new();
            {
                let mut s = DeviceSession::with_budget(&mut gpu, 600_000);
                let mut before = resident(&s);
                let mut step = |s: &mut DeviceSession<'_>, label: &str| {
                    let now = resident(s);
                    let gone: Vec<&String> = before.iter().filter(|k| !now.contains(k)).collect();
                    log.push(format!(
                        "{label}: gone {gone:?} | {:?} | pinned {} free {}",
                        s.stats(),
                        s.pinned_bytes(),
                        s.device_free_bytes()
                    ));
                    before = now;
                };
                let tie_cost = pcie_gen3().transfer_secs(16_000);

                // Fill to 532 000 of the 600 000 budget; nothing leaves.
                drop(col(&mut s, 0));
                drop(table(&mut s, 101, None));
                drop(col(&mut s, 1));
                drop(col(&mut s, 3));
                drop(table(&mut s, 102, Some(tie_cost)));
                drop(table(&mut s, 103, Some(1e-9)));
                drop(col(&mut s, 2));
                step(&mut s, "fill");

                // One ledger pin (no Rc kept), one Rc hold (no ledger).
                let q = s.begin_query();
                let pinned =
                    s.pin_column(q, ColumnKey::for_dataset(0, 0), HostCol::Plain(&host(0)));
                drop(pinned.expect("a hit"));
                let held = table(&mut s, 101, None);
                step(&mut s, "pin c0, hold t101");

                // Budget pressure, one victim per insert.
                drop(col(&mut s, 4));
                step(&mut s, "insert c4");
                drop(col(&mut s, 5));
                step(&mut s, "insert c5");

                // Re-touch the equal-density pair on the risen clock.
                if table_touched_first {
                    drop(table(&mut s, 102, None));
                    drop(col(&mut s, 3));
                } else {
                    drop(col(&mut s, 3));
                    drop(table(&mut s, 102, None));
                }
                step(&mut s, "touch the pair");

                // Scratch pressure, one victim per allocation, down to the
                // two pinned entries and the typed refusal.
                let mut scratch = Vec::new();
                for bytes in [620_000, 100_000, 100_000, 40_000, 16_000] {
                    scratch.push(s.try_alloc_scratch_zeroed::<u8>(bytes).expect("fits"));
                    step(&mut s, &format!("scratch {bytes}"));
                }
                let oom = s.try_alloc_scratch_zeroed::<u8>(30_000).unwrap_err();
                step(&mut s, &format!("scratch 30000 refused {oom:?}"));
                for buf in scratch {
                    s.free_scratch(buf);
                }

                // `clear` drains the unpinned and keeps the two pinned.
                drop(col(&mut s, 6));
                drop(table(&mut s, 103, Some(1e-9)));
                step(&mut s, "reinsert c6, t103");
                s.clear();
                step(&mut s, "clear");
                s.end_query(q);
                drop(held);
                step(&mut s, "unpin");
                s.clear();
                step(&mut s, "clear again");
            }
            assert_eq!(gpu.mem_used(), 0, "session drop frees everything");
            log
        }

        let table_first = scenario(true);
        let column_first = scenario(false);
        let pair_left = |log: &[String]| -> Vec<String> {
            let gone = |l: &&String| l.contains("gone [\"c3\"]") || l.contains("gone [\"t102\"]");
            log.iter()
                .filter(gone)
                .map(|l| l[..l.find(" |").unwrap()].to_string())
                .collect()
        };
        assert_eq!(
            pair_left(&table_first),
            [
                "scratch 40000: gone [\"t102\"]",
                "scratch 16000: gone [\"c3\"]"
            ]
        );
        assert_eq!(
            pair_left(&column_first),
            [
                "scratch 40000: gone [\"c3\"]",
                "scratch 16000: gone [\"t102\"]"
            ]
        );
        assert_eq!(table_first, PINNED_VICTIM_LOG, "\n{table_first:#?}");
    }

    #[rustfmt::skip]
    const PINNED_VICTIM_LOG: [&str; 15] = [
    "fill: gone [] | SessionStats { col_hits: 0, col_misses: 4, ht_hits: 0, ht_misses: 3, evictions: 0, uploaded_bytes: 476000, build_secs: 1.626925454545454e-5, cached_bytes: 532000 } | pinned 0 free 516576",
    "pin c0, hold t101: gone [] | SessionStats { col_hits: 1, col_misses: 4, ht_hits: 1, ht_misses: 3, evictions: 0, uploaded_bytes: 476000, build_secs: 1.626925454545454e-5, cached_bytes: 532000 } | pinned 168000 free 516576",
    "insert c4: gone [\"t103\"] | SessionStats { col_hits: 1, col_misses: 5, ht_hits: 1, ht_misses: 3, evictions: 1, uploaded_bytes: 556000, build_secs: 1.626925454545454e-5, cached_bytes: 580000 } | pinned 168000 free 468576",
    "insert c5: gone [\"c2\"] | SessionStats { col_hits: 1, col_misses: 6, ht_hits: 1, ht_misses: 3, evictions: 2, uploaded_bytes: 616000, build_secs: 1.626925454545454e-5, cached_bytes: 440000 } | pinned 168000 free 608576",
    "touch the pair: gone [] | SessionStats { col_hits: 2, col_misses: 6, ht_hits: 2, ht_misses: 3, evictions: 2, uploaded_bytes: 616000, build_secs: 1.626925454545454e-5, cached_bytes: 440000 } | pinned 168000 free 608576",
    "scratch 620000: gone [\"c1\"] | SessionStats { col_hits: 2, col_misses: 6, ht_hits: 2, ht_misses: 3, evictions: 3, uploaded_bytes: 616000, build_secs: 1.626925454545454e-5, cached_bytes: 340000 } | pinned 168000 free 88576",
    "scratch 100000: gone [\"c4\"] | SessionStats { col_hits: 2, col_misses: 6, ht_hits: 2, ht_misses: 3, evictions: 4, uploaded_bytes: 616000, build_secs: 1.626925454545454e-5, cached_bytes: 260000 } | pinned 168000 free 68576",
    "scratch 100000: gone [\"c5\"] | SessionStats { col_hits: 2, col_misses: 6, ht_hits: 2, ht_misses: 3, evictions: 5, uploaded_bytes: 616000, build_secs: 1.626925454545454e-5, cached_bytes: 200000 } | pinned 168000 free 28576",
    "scratch 40000: gone [\"t102\"] | SessionStats { col_hits: 2, col_misses: 6, ht_hits: 2, ht_misses: 3, evictions: 6, uploaded_bytes: 616000, build_secs: 1.626925454545454e-5, cached_bytes: 184000 } | pinned 168000 free 4576",
    "scratch 16000: gone [\"c3\"] | SessionStats { col_hits: 2, col_misses: 6, ht_hits: 2, ht_misses: 3, evictions: 7, uploaded_bytes: 616000, build_secs: 1.626925454545454e-5, cached_bytes: 168000 } | pinned 168000 free 4576",
    "scratch 30000 refused SessionOom { requested: 30000, pinned_bytes: 168000, cached_bytes: 168000, device_free: 4576 }: gone [] | SessionStats { col_hits: 2, col_misses: 6, ht_hits: 2, ht_misses: 3, evictions: 7, uploaded_bytes: 616000, build_secs: 1.626925454545454e-5, cached_bytes: 168000 } | pinned 168000 free 4576",
    "reinsert c6, t103: gone [] | SessionStats { col_hits: 2, col_misses: 7, ht_hits: 2, ht_misses: 4, evictions: 7, uploaded_bytes: 640000, build_secs: 1.627025454545454e-5, cached_bytes: 224000 } | pinned 168000 free 824576",
    "clear: gone [\"c6\", \"t103\"] | SessionStats { col_hits: 2, col_misses: 7, ht_hits: 2, ht_misses: 4, evictions: 7, uploaded_bytes: 640000, build_secs: 1.627025454545454e-5, cached_bytes: 168000 } | pinned 168000 free 880576",
    "unpin: gone [] | SessionStats { col_hits: 2, col_misses: 7, ht_hits: 2, ht_misses: 4, evictions: 7, uploaded_bytes: 640000, build_secs: 1.627025454545454e-5, cached_bytes: 168000 } | pinned 0 free 880576",
    "clear again: gone [\"c0\", \"t101\"] | SessionStats { col_hits: 2, col_misses: 7, ht_hits: 2, ht_misses: 4, evictions: 7, uploaded_bytes: 640000, build_secs: 1.627025454545454e-5, cached_bytes: 0 } | pinned 0 free 1048576",
    ];

    #[test]
    fn resident_bytes_reports_cached_keys_only() {
        let mut gpu = Gpu::new(nvidia_v100());
        let mut s = DeviceSession::new(&mut gpu);
        let data: Vec<i32> = (0..1000).collect();
        drop(s.column(ColumnKey::for_dataset(0, 4), HostCol::Plain(&data)));
        let keys = [ColumnKey::for_dataset(0, 4), ColumnKey::for_dataset(0, 5)];
        assert_eq!(s.resident_bytes(&keys), 4000);
        assert_eq!(s.stats().hit_ratio(), 0.0);
        drop(s.column(ColumnKey::for_dataset(0, 4), HostCol::Plain(&data)));
        assert!((s.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }
}
