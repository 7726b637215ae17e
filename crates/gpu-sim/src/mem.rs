//! Device global memory: typed buffers with simulated addresses.
//!
//! A [`DeviceBuffer`] owns host memory holding the buffer contents (the
//! functional half of the simulation) and carries a simulated device address
//! assigned by a bump allocator (the timing half: the L2 cache simulator and
//! the coalescing accounting need stable addresses). The allocator enforces
//! the device's memory capacity, so working sets that would not fit on a real
//! V100 fail here too.

use std::sync::atomic::{AtomicU64, Ordering};

/// Alignment of every allocation, matching the 256-byte alignment CUDA's
/// allocator guarantees (and ensuring a buffer never shares a cache line
/// with another buffer).
pub const ALLOC_ALIGN: u64 = 256;

static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(1);

/// Error returned when an allocation exceeds the device's remaining memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfDeviceMemory {
    pub requested: usize,
    pub available: usize,
}

impl std::fmt::Display for OutOfDeviceMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of device memory: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfDeviceMemory {}

/// A typed allocation in simulated device global memory.
#[derive(Debug)]
pub struct DeviceBuffer<T> {
    data: Vec<T>,
    addr: u64,
    id: u64,
    /// Bytes charged against the device budget at allocation time (stable
    /// across [`DeviceBuffer::truncate`]).
    alloc_bytes: usize,
}

impl<T: Copy + Default> DeviceBuffer<T> {
    fn new(data: Vec<T>, addr: u64, alloc_bytes: usize) -> Self {
        DeviceBuffer {
            data,
            addr,
            id: NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed),
            alloc_bytes,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// Simulated device base address.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Simulated device address of element `idx` (used for cache-simulated
    /// gathers/scatters).
    #[inline]
    pub fn addr_of(&self, idx: usize) -> u64 {
        debug_assert!(idx * std::mem::size_of::<T>() <= self.alloc_bytes);
        self.addr + (idx * std::mem::size_of::<T>()) as u64
    }

    /// Unique buffer id (diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Read-only view of the contents.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the contents.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Copies the contents back to a host `Vec` (the simulated
    /// `cudaMemcpy(DeviceToHost)`; PCIe time is accounted by
    /// [`crate::pcie`] when the caller models transfers).
    pub fn to_host(&self) -> Vec<T> {
        self.data.clone()
    }

    /// Shrinks the buffer to its first `len` elements (used by kernels that
    /// over-allocate their output, e.g. a selection sized for the worst
    /// case). The device-memory budget still accounts the original
    /// allocation until the buffer is freed.
    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(len);
    }
}

/// Bump allocator over the simulated device address space.
#[derive(Debug)]
pub struct Memory {
    capacity: usize,
    used: usize,
    high_water: usize,
    next_addr: u64,
}

impl Memory {
    pub fn new(capacity: usize) -> Self {
        Memory {
            capacity,
            used: 0,
            high_water: 0,
            // Start away from address zero so that `addr == 0` never appears
            // (helps catch accounting bugs).
            next_addr: ALLOC_ALIGN,
        }
    }

    /// Charges `len` elements of `T` against the budget and assigns them an
    /// address — before any host memory backs them, so a request larger
    /// than the device is refused without first being materialized on the
    /// host (a 32 GiB `Vec` for a 32 GiB simulated device).
    fn reserve<T>(&mut self, len: usize) -> Result<(u64, usize), OutOfDeviceMemory> {
        let available = self.capacity - self.used;
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .filter(|&b| b <= available)
            .ok_or(OutOfDeviceMemory {
                requested: len.saturating_mul(std::mem::size_of::<T>()),
                available,
            })?;
        let addr = self.next_addr;
        self.next_addr += bytes.next_multiple_of(ALLOC_ALIGN as usize) as u64;
        self.used += bytes;
        self.high_water = self.high_water.max(self.used);
        Ok((addr, bytes))
    }

    /// Allocates a buffer holding a copy of `data`; the copy is made only
    /// once the budget has accepted it.
    pub fn alloc_from<T: Copy + Default>(
        &mut self,
        data: &[T],
    ) -> Result<DeviceBuffer<T>, OutOfDeviceMemory> {
        let (addr, bytes) = self.reserve::<T>(data.len())?;
        Ok(DeviceBuffer::new(data.to_vec(), addr, bytes))
    }

    /// Allocates a zero-initialized buffer of `len` elements.
    pub fn alloc_zeroed<T: Copy + Default>(
        &mut self,
        len: usize,
    ) -> Result<DeviceBuffer<T>, OutOfDeviceMemory> {
        let (addr, bytes) = self.reserve::<T>(len)?;
        Ok(DeviceBuffer::new(vec![T::default(); len], addr, bytes))
    }

    /// Reserves the budget and the addresses of `len` elements exactly as
    /// [`Memory::alloc_zeroed`] does, with no host memory behind them — a
    /// buffer already [truncated](DeviceBuffer::truncate) to nothing. For a
    /// table a kernel only takes the addresses of (its values live in the
    /// functional half's own structures).
    pub fn alloc_unbacked<T: Copy + Default>(
        &mut self,
        len: usize,
    ) -> Result<DeviceBuffer<T>, OutOfDeviceMemory> {
        let (addr, bytes) = self.reserve::<T>(len)?;
        Ok(DeviceBuffer::new(Vec::new(), addr, bytes))
    }

    /// Releases a buffer's bytes back to the budget (addresses are not
    /// reused; the address space is 2^64, exhaustion is not a concern).
    pub fn free<T: Copy + Default>(&mut self, buf: DeviceBuffer<T>) {
        self.used -= buf.alloc_bytes;
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Peak bytes allocated over the lifetime of the device.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_assigns_disjoint_aligned_addresses() {
        let mut m = Memory::new(1 << 20);
        let a = m.alloc_from(&[0u32; 100]).unwrap();
        let b = m.alloc_from(&[0u32; 100]).unwrap();
        assert_eq!(a.addr() % ALLOC_ALIGN, 0);
        assert_eq!(b.addr() % ALLOC_ALIGN, 0);
        assert!(b.addr() >= a.addr() + a.size_bytes() as u64);
    }

    #[test]
    fn addr_of_scales_by_element_size() {
        let mut m = Memory::new(1 << 20);
        let a = m.alloc_from(&[0u64; 16]).unwrap();
        assert_eq!(a.addr_of(2) - a.addr(), 16);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut m = Memory::new(1024);
        assert!(m.alloc_from(&[0u8; 1025]).is_err());
        let a = m.alloc_from(&[0u8; 1000]).unwrap();
        assert!(m.alloc_from(&[0u8; 512]).is_err());
        m.free(a);
        assert!(m.alloc_from(&[0u8; 512]).is_ok());
    }

    /// A request beyond the budget is refused before the host backs it:
    /// these lengths could not be allocated on any machine, so reaching
    /// the `Err` at all shows the order. A refusal charges nothing.
    #[test]
    fn oversized_requests_are_refused_before_host_allocation() {
        let mut m = Memory::new(1024);
        let err = m.alloc_zeroed::<u64>(usize::MAX / 8).unwrap_err();
        assert_eq!(err.available, 1024);
        assert!(err.requested > err.available);
        // A byte count that overflows `usize` is refused, not wrapped.
        assert!(m.alloc_zeroed::<u64>(usize::MAX).is_err());
        assert_eq!((m.used(), m.high_water()), (0, 0));
        assert!(m.alloc_from(&[0u8; 1024]).is_ok());
        assert!(m.alloc_from(&[0u8; 1]).is_err());
    }

    /// An unbacked buffer charges, addresses and frees like a zeroed one.
    #[test]
    fn unbacked_buffers_reserve_like_zeroed_ones() {
        let (mut a, mut b) = (Memory::new(4096), Memory::new(4096));
        for len in [100usize, 7, 300] {
            let zeroed = a.alloc_zeroed::<i64>(len).unwrap();
            let unbacked = b.alloc_unbacked::<i64>(len).unwrap();
            assert!(unbacked.is_empty());
            assert_eq!(unbacked.addr_of(len - 1), zeroed.addr_of(len - 1));
            assert_eq!((b.used(), b.high_water()), (a.used(), a.high_water()));
            if len == 7 {
                a.free(zeroed);
                b.free(unbacked);
            }
        }
        assert_eq!(
            b.alloc_unbacked::<i64>(200).unwrap_err(),
            a.alloc_zeroed::<i64>(200).unwrap_err()
        );
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut m = Memory::new(1024);
        let a = m.alloc_from(&[0u8; 600]).unwrap();
        m.free(a);
        let _b = m.alloc_from(&[0u8; 100]).unwrap();
        assert_eq!(m.high_water(), 600);
        assert_eq!(m.used(), 100);
    }

    #[test]
    fn truncate_keeps_full_allocation_charged() {
        let mut m = Memory::new(1024);
        let mut a = m.alloc_from(&[0u8; 600]).unwrap();
        a.truncate(10);
        assert_eq!(a.len(), 10);
        assert_eq!(m.used(), 600);
        m.free(a);
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn to_host_roundtrips() {
        let mut m = Memory::new(1 << 20);
        let a = m.alloc_from(&[1i32, 2, 3]).unwrap();
        assert_eq!(a.to_host(), vec![1, 2, 3]);
    }
}
