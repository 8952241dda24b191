//! Device global-memory objects.
//!
//! * [`DeviceBuffer`] — an immutable-after-upload array in device global
//!   memory (the paper's `D`, `G`, `A` inputs).
//! * [`DeviceAppendBuffer`] — a capacity-bounded output array written via
//!   an atomically-incremented cursor, exactly like the CUDA idiom
//!   `out[atomicAdd(&count, 1)] = item` the kernels use for their result
//!   set `R`.
//! * [`DeviceCounter`] — a bare atomic counter (the result-size estimation
//!   kernel of Section VI only counts, it does not materialize results).
//!
//! All allocations draw down the owning device's global-memory capacity
//! and release it on drop, so out-of-memory behaves like `cudaMalloc`.

use crate::device::Device;
use crate::error::DeviceError;
use crate::hostmem::PinnedBuffer;
use crate::time::SimDuration;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// An array resident in simulated device global memory.
///
/// Uploads and downloads move real bytes and return the modeled transfer
/// duration so callers can charge it to a stream/timeline.
pub struct DeviceBuffer<T: Copy> {
    device: Device,
    data: Vec<T>,
}

impl<T: Copy> DeviceBuffer<T> {
    /// Allocate and upload `host` to the device (H2D). Returns the buffer
    /// and the modeled transfer duration.
    pub fn from_host(
        device: &Device,
        host: &[T],
        pinned: bool,
    ) -> Result<(Self, SimDuration), DeviceError> {
        let bytes = std::mem::size_of_val(host);
        device.alloc_bytes(bytes)?;
        let t = device.transfer_model().transfer_time(bytes, pinned);
        Ok((
            DeviceBuffer {
                device: device.clone(),
                data: host.to_vec(),
            },
            t,
        ))
    }

    /// Allocate zero-initialized device memory without an upload.
    pub fn zeroed(device: &Device, len: usize) -> Result<Self, DeviceError>
    where
        T: Default,
    {
        let bytes = len * std::mem::size_of::<T>();
        device.alloc_bytes(bytes)?;
        Ok(DeviceBuffer {
            device: device.clone(),
            data: vec![T::default(); len],
        })
    }

    /// Device-side view of the data (what a kernel dereferences).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable device-side view (used by device-side sorts).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Download to the host (D2H), returning the data and the modeled
    /// transfer duration.
    pub fn to_host(&self, pinned: bool) -> (Vec<T>, SimDuration) {
        let bytes = std::mem::size_of_val(self.data.as_slice());
        let t = self.device.transfer_model().transfer_time(bytes, pinned);
        (self.data.clone(), t)
    }

    /// Download a prefix of `n` elements (a partially-filled result buffer).
    pub fn prefix_to_host(&self, n: usize, pinned: bool) -> (Vec<T>, SimDuration) {
        let n = n.min(self.data.len());
        let bytes = n * std::mem::size_of::<T>();
        let t = self.device.transfer_model().transfer_time(bytes, pinned);
        (self.data[..n].to_vec(), t)
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Allocation size in bytes.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }
}

impl<T: Copy> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        self.device
            .free_bytes(self.data.capacity() * std::mem::size_of::<T>());
    }
}

/// A fixed-capacity device output array with an atomic write cursor.
///
/// Concurrent blocks append through [`AppendHandle`]; each append claims a
/// distinct slot with `fetch_add`, so writes are disjoint and lock-free.
/// Appends past capacity are *rejected* and counted (a real kernel would
/// corrupt memory; the simulator surfaces the overflow instead). The
/// batching scheme's α-overestimation exists precisely to keep
/// [`DeviceAppendBuffer::overflowed`] false.
///
/// **Element order is schedule-dependent** — with blocks running in
/// parallel on the host pool, the slot an append claims varies run to
/// run. The workspace's determinism policy (DESIGN.md, "Threading model &
/// determinism policy") therefore requires every consumer of a drained
/// append buffer to canonicalize before use: sort by a total order (the
/// hybrid pipeline's `thrust::sort_by_key`) or reduce with an
/// order-insensitive fold. Never iterate a drained buffer assuming a
/// stable order.
pub struct DeviceAppendBuffer<T: Copy + Send> {
    device: Device,
    slots: Box<[UnsafeCell<T>]>,
    cursor: AtomicUsize,
    rejected: AtomicUsize,
}

// SAFETY: concurrent access is mediated by the atomic cursor: every append
// writes a unique slot index, and reads (`take`/`as_filled_slice`) only
// happen after kernel completion (exclusive or quiescent access).
unsafe impl<T: Copy + Send> Sync for DeviceAppendBuffer<T> {}

impl<T: Copy + Send + Default> DeviceAppendBuffer<T> {
    /// Allocate a buffer of `capacity` items on `device`.
    pub fn new(device: &Device, capacity: usize) -> Result<Self, DeviceError> {
        let bytes = capacity * std::mem::size_of::<T>();
        device.alloc_bytes(bytes)?;
        let slots: Box<[UnsafeCell<T>]> = (0..capacity)
            .map(|_| UnsafeCell::new(T::default()))
            .collect();
        Ok(DeviceAppendBuffer {
            device: device.clone(),
            slots,
            cursor: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
        })
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Items appended so far (clamped to capacity).
    pub fn len(&self) -> usize {
        self.cursor.load(Ordering::Acquire).min(self.capacity())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether any append was rejected for lack of space.
    pub fn overflowed(&self) -> bool {
        self.rejected.load(Ordering::Relaxed) > 0
    }

    /// Number of rejected appends.
    pub fn rejected(&self) -> usize {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Append one item; lock-free, callable from concurrent blocks.
    #[inline]
    pub fn append(&self, item: T) -> Result<(), DeviceError> {
        let idx = self.cursor.fetch_add(1, Ordering::AcqRel);
        if idx >= self.slots.len() {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(DeviceError::BufferOverflow {
                capacity: self.slots.len(),
                attempted: idx + 1,
            });
        }
        // SAFETY: idx was uniquely claimed by fetch_add and is in bounds.
        unsafe { *self.slots[idx].get() = item };
        Ok(())
    }

    /// Append a run of items with a single cursor reservation — the device
    /// idiom of one `atomicAdd(cursor, n)` per block-staged batch instead
    /// of one per element ([`AppendStage`] is the caller). Overflow
    /// accounting matches `n` individual [`append`](Self::append) calls
    /// exactly: items that fit in the reserved window are stored, the rest
    /// are counted rejected.
    #[inline]
    pub fn append_n(&self, items: &[T]) -> Result<(), DeviceError> {
        if items.is_empty() {
            return Ok(());
        }
        let start = self.cursor.fetch_add(items.len(), Ordering::AcqRel);
        let cap = self.slots.len();
        let fits = cap.saturating_sub(start).min(items.len());
        for (i, &item) in items[..fits].iter().enumerate() {
            // SAFETY: start..start+fits was uniquely claimed and in bounds.
            unsafe { *self.slots[start + i].get() = item };
        }
        if fits < items.len() {
            self.rejected
                .fetch_add(items.len() - fits, Ordering::Relaxed);
            return Err(DeviceError::BufferOverflow {
                capacity: cap,
                attempted: start + items.len(),
            });
        }
        Ok(())
    }

    /// A block-local stage in front of this buffer: items pushed into it
    /// reach the buffer through one [`append_n`](Self::append_n) per
    /// stage-full and one at block end (drop). Capacity is one block's
    /// shared memory worth of items (`shared_mem_per_block / size_of::<T>()`,
    /// 6144 pairs on the K20c) — the CUDA idiom of staging a block's results
    /// in shared memory and reserving global space with a single
    /// `atomicAdd`. Only the cursor traffic changes: every pushed item is
    /// stored or counted rejected, so `len() + rejected()` stays the exact
    /// number of items pushed.
    pub fn stage(&self) -> AppendStage<'_, T> {
        let cap = (self.device.props().shared_mem_per_block / std::mem::size_of::<T>()).max(1);
        AppendStage {
            buf: self,
            items: Vec::with_capacity(cap),
        }
    }

    /// View of the filled prefix. Requires `&mut self`, i.e. no concurrent
    /// kernel can still be appending.
    pub fn as_filled_slice(&mut self) -> &[T] {
        let n = self.len();
        // SAFETY: exclusive access; the first `n` slots were initialized.
        unsafe { std::slice::from_raw_parts(self.slots.as_ptr() as *const T, n) }
    }

    /// Mutable view of the filled prefix (device-side sort operates here).
    pub fn as_filled_mut_slice(&mut self) -> &mut [T] {
        let n = self.len();
        // SAFETY: exclusive access; the first `n` slots were initialized.
        unsafe { std::slice::from_raw_parts_mut(self.slots.as_mut_ptr() as *mut T, n) }
    }

    /// Reset the cursor so the allocation can be reused for the next batch
    /// (the 3 per-stream result buffers are reused across batches).
    pub fn reset(&mut self) {
        self.cursor.store(0, Ordering::Release);
        self.rejected.store(0, Ordering::Relaxed);
    }

    /// Download the filled prefix to the host, returning data and modeled
    /// transfer duration.
    pub fn to_host(&mut self, pinned: bool) -> (Vec<T>, SimDuration) {
        let n = self.len();
        let bytes = n * std::mem::size_of::<T>();
        let t = self.device.transfer_model().transfer_time(bytes, pinned);
        (self.as_filled_slice().to_vec(), t)
    }

    /// Download the filled prefix straight into a pinned staging buffer —
    /// the cudaMemcpyAsync(D2H, pinned) shape — without the intermediate
    /// host `Vec` of [`Self::to_host`]. Returns the staged length and the
    /// modeled pinned-rate transfer duration.
    pub fn download_into(&mut self, stage: &mut PinnedBuffer<T>) -> (usize, SimDuration)
    where
        T: Default,
    {
        let n = self.len();
        let bytes = n * std::mem::size_of::<T>();
        let t = self.device.transfer_model().transfer_time(bytes, true);
        (stage.write_from(self.as_filled_slice()), t)
    }
}

impl<T: Copy + Send> Drop for DeviceAppendBuffer<T> {
    fn drop(&mut self) {
        self.device
            .free_bytes(self.slots.len() * std::mem::size_of::<T>());
    }
}

/// Block-local staging for a [`DeviceAppendBuffer`]; see
/// [`DeviceAppendBuffer::stage`]. Flushes when full and on drop, so a
/// block that returns early (a `?` on a failed shared-memory allocation)
/// still delivers every item it pushed.
pub struct AppendStage<'a, T: Copy + Send + Default> {
    buf: &'a DeviceAppendBuffer<T>,
    items: Vec<T>,
}

impl<T: Copy + Send + Default> AppendStage<'_, T> {
    /// Stage one item, flushing first if the stage is full.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.items.capacity() {
            self.flush();
        }
        self.items.push(item);
    }

    /// Hand every staged item to the buffer with one cursor reservation.
    fn flush(&mut self) {
        // Overflow is recorded by the buffer; a real kernel cannot
        // unwind, so neither does the stage.
        let _ = self.buf.append_n(&self.items);
        self.items.clear();
    }
}

impl<T: Copy + Send + Default> Drop for AppendStage<'_, T> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// An untyped device global-memory reservation with RAII release — for
/// device-resident structures whose host-side representation does not fit
/// [`DeviceBuffer`]'s `Copy` layout (e.g. atomic adjacency arrays). The
/// reservation draws down capacity exactly like a typed buffer.
pub struct RawAlloc {
    device: Device,
    bytes: usize,
}

impl RawAlloc {
    /// Reserve `bytes` of device global memory.
    pub fn new(device: &Device, bytes: usize) -> Result<Self, DeviceError> {
        device.alloc_bytes(bytes)?;
        Ok(RawAlloc {
            device: device.clone(),
            bytes,
        })
    }

    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for RawAlloc {
    fn drop(&mut self) {
        self.device.free_bytes(self.bytes);
    }
}

/// A device-resident atomic counter (e.g. the neighbor-count estimator).
pub struct DeviceCounter {
    device: Device,
    value: AtomicU64,
}

impl DeviceCounter {
    pub fn new(device: &Device) -> Result<Self, DeviceError> {
        device.alloc_bytes(std::mem::size_of::<u64>())?;
        Ok(DeviceCounter {
            device: device.clone(),
            value: AtomicU64::new(0),
        })
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }

    pub fn reset(&self) {
        self.value.store(0, Ordering::Release);
    }
}

impl Drop for DeviceCounter {
    fn drop(&mut self) {
        self.device.free_bytes(std::mem::size_of::<u64>());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_roundtrip_moves_bytes() {
        let d = Device::k20c();
        let host: Vec<u32> = (0..1000).collect();
        let (buf, up) = DeviceBuffer::from_host(&d, &host, false).unwrap();
        assert!(up > SimDuration::ZERO);
        assert_eq!(d.used_bytes(), 4000);
        let (back, down) = buf.to_host(true);
        assert_eq!(back, host);
        assert!(down > SimDuration::ZERO);
        drop(buf);
        assert_eq!(d.used_bytes(), 0);
    }

    #[test]
    fn buffer_allocation_respects_capacity() {
        let d = Device::tiny(100);
        let host = vec![0u8; 101];
        assert!(matches!(
            DeviceBuffer::from_host(&d, &host, false),
            Err(DeviceError::OutOfMemory { .. })
        ));
        let host = vec![0u8; 100];
        assert!(DeviceBuffer::from_host(&d, &host, false).is_ok());
    }

    #[test]
    fn append_buffer_sequential() {
        let d = Device::k20c();
        let mut buf = DeviceAppendBuffer::<u64>::new(&d, 10).unwrap();
        for i in 0..10 {
            buf.append(i).unwrap();
        }
        assert_eq!(buf.len(), 10);
        assert!(!buf.overflowed());
        assert!(buf.append(99).is_err());
        assert!(buf.overflowed());
        assert_eq!(buf.rejected(), 1);
        // Overflowed appends do not clobber valid data.
        assert_eq!(
            buf.as_filled_slice(),
            (0..10).collect::<Vec<_>>().as_slice()
        );
    }

    #[test]
    fn append_buffer_concurrent_no_loss() {
        let d = Device::k20c();
        let mut buf = DeviceAppendBuffer::<u64>::new(&d, 8 * 1000).unwrap();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let buf = &buf;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        buf.append(t * 1000 + i).unwrap();
                    }
                });
            }
        });
        assert_eq!(buf.len(), 8000);
        let mut items = buf.as_filled_slice().to_vec();
        items.sort_unstable();
        assert_eq!(items, (0..8000).collect::<Vec<_>>());
    }

    #[test]
    fn append_buffer_reset_reuses_allocation() {
        let d = Device::tiny(1024);
        let mut buf = DeviceAppendBuffer::<u32>::new(&d, 100).unwrap();
        let used = d.used_bytes();
        for i in 0..100 {
            buf.append(i).unwrap();
        }
        buf.reset();
        assert_eq!(buf.len(), 0);
        assert!(!buf.overflowed());
        buf.append(7).unwrap();
        assert_eq!(buf.as_filled_slice(), &[7]);
        assert_eq!(d.used_bytes(), used, "reset must not reallocate");
    }

    #[test]
    fn append_stage_flushes_when_full_and_on_drop() {
        let d = Device::k20c();
        let cap = d.props().shared_mem_per_block / std::mem::size_of::<(u32, u32)>();
        assert_eq!(cap, 6144);
        let mut buf = DeviceAppendBuffer::<(u32, u32)>::new(&d, 2 * cap).unwrap();
        {
            let mut stage = buf.stage();
            for i in 0..cap as u32 + 1 {
                stage.push((i, i));
            }
            // The full stage went out in one reservation; the last item
            // is still staged.
            assert_eq!(buf.len(), cap);
        }
        assert_eq!(buf.len(), cap + 1);
        let expected: Vec<(u32, u32)> = (0..cap as u32 + 1).map(|i| (i, i)).collect();
        assert_eq!(buf.as_filled_slice(), expected.as_slice());

        // Past capacity every pushed item is still counted.
        let small = DeviceAppendBuffer::<(u32, u32)>::new(&d, 10).unwrap();
        let mut stage = small.stage();
        for i in 0..25 {
            stage.push((i, 0));
        }
        drop(stage);
        assert!(small.overflowed());
        assert_eq!(small.len() + small.rejected(), 25);
    }

    #[test]
    fn counter_concurrent_sum() {
        let d = Device::k20c();
        let c = DeviceCounter::new(&d).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(2);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn raw_alloc_accounts_and_releases() {
        let d = Device::tiny(100);
        let a = RawAlloc::new(&d, 60).unwrap();
        assert_eq!(a.bytes(), 60);
        assert_eq!(d.used_bytes(), 60);
        assert!(RawAlloc::new(&d, 50).is_err());
        drop(a);
        assert_eq!(d.used_bytes(), 0);
    }

    #[test]
    fn zeroed_allocates() {
        let d = Device::tiny(64);
        let b = DeviceBuffer::<u64>::zeroed(&d, 8).unwrap();
        assert_eq!(b.as_slice(), &[0u64; 8]);
        assert_eq!(d.used_bytes(), 64);
        assert!(DeviceBuffer::<u64>::zeroed(&d, 1).is_err());
    }
}
