//! Host-side memory with the pinned/pageable distinction.
//!
//! CUDA transfers from page-locked ("pinned") host memory are roughly twice
//! as fast as from pageable memory, but pinning is itself expensive
//! (a page-table walk proportional to the allocation). The paper stages
//! every batch's result set through pinned buffers and is careful not to
//! over-allocate them (Section VI). [`PinnedBuffer`] models both sides of
//! that trade-off.

use crate::device::Device;
use crate::time::SimDuration;

/// A page-locked host staging buffer.
///
/// Carries the modeled allocation (pinning) cost so callers can charge it
/// once, and marks transfers it participates in as pinned-rate.
pub struct PinnedBuffer<T: Copy + Default> {
    data: Vec<T>,
    alloc_time: SimDuration,
}

impl<T: Copy + Default> PinnedBuffer<T> {
    /// Allocate a pinned buffer of `len` items on the host of `device`.
    /// The returned buffer records the modeled pinning time.
    pub fn new(device: &Device, len: usize) -> Self {
        let bytes = len * std::mem::size_of::<T>();
        let alloc_time = device.transfer_model().pin_time(bytes);
        PinnedBuffer {
            data: vec![T::default(); len],
            alloc_time,
        }
    }

    /// The modeled cost of having allocated this buffer.
    pub fn alloc_time(&self) -> SimDuration {
        self.alloc_time
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.data.as_slice())
    }

    /// Write `src` into the buffer starting at 0, growing never: `src` must
    /// fit. Returns the written prefix length.
    pub fn write_from(&mut self, src: &[T]) -> usize {
        assert!(
            src.len() <= self.data.len(),
            "staging write of {} items exceeds pinned capacity {}",
            src.len(),
            self.data.len()
        );
        self.data[..src.len()].copy_from_slice(src);
        src.len()
    }

    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_time_grows_with_size() {
        let d = Device::k20c();
        let small = PinnedBuffer::<u64>::new(&d, 1_000);
        let large = PinnedBuffer::<u64>::new(&d, 10_000_000);
        assert!(large.alloc_time() > small.alloc_time());
        assert!(small.alloc_time() > SimDuration::ZERO);
    }

    #[test]
    fn write_roundtrip() {
        let d = Device::k20c();
        let mut buf = PinnedBuffer::<u32>::new(&d, 10);
        let n = buf.write_from(&[1, 2, 3]);
        assert_eq!(n, 3);
        assert_eq!(&buf.as_slice()[..3], &[1, 2, 3]);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    #[should_panic]
    fn overfull_write_panics() {
        let d = Device::k20c();
        let mut buf = PinnedBuffer::<u32>::new(&d, 2);
        buf.write_from(&[1, 2, 3]);
    }

    #[test]
    fn pinned_does_not_consume_device_memory() {
        let d = Device::tiny(16);
        let _buf = PinnedBuffer::<u64>::new(&d, 1_000_000);
        assert_eq!(d.used_bytes(), 0, "pinned memory is host memory");
    }
}
