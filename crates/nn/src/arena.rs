//! Preallocated activation buffers for allocation-free inference.
//!
//! The training stack allocates a fresh tensor per layer per forward —
//! fine for training, ruinous for a serving hot loop. [`EvalArena`] is a
//! small free-list of `f32` buffers. Layers implementing
//! [`crate::Layer::eval_into`] acquire output buffers from the arena,
//! compute in place or via the allocation-free kernels, and release
//! their inputs back for reuse. Convolutions need no scratch of their
//! own here: they lower their input straight into the GEMM's
//! thread-local pack buffer (see [`crate::im2col::im2col_panels`]).
//!
//! The first clip through a network grows every buffer to its high-water
//! mark (each growth recorded in [`ArenaStats::grow_events`]); because a
//! network's acquire/release sequence is identical for every same-shaped
//! clip, the steady state performs **zero heap allocations per clip** —
//! the property asserted by the `infer_alloc` integration test.

use p3d_tensor::Shape;

/// Handle to one buffer inside an [`EvalArena`].
///
/// Plain index, deliberately `Copy`; validity is only meaningful against
/// the arena that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BufId(usize);

struct Buf {
    data: Vec<f32>,
    /// Logical length (`<= data.len()`); `data` only ever grows.
    len: usize,
    shape: Shape,
    in_use: bool,
}

/// Cumulative allocation statistics for one arena.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Times any buffer had to grow — i.e. heap allocations
    /// attributable to the arena. Stable after warmup.
    pub grow_events: usize,
    /// Calls that fell back to the default allocating `eval_into` path
    /// (a layer without an arena-aware override).
    pub fallback_events: usize,
    /// Buffers currently held by the arena.
    pub buffers: usize,
    /// Total `f32` capacity across all buffers.
    pub capacity: usize,
}

/// A reusable pool of activation buffers.
pub struct EvalArena {
    bufs: Vec<Buf>,
    grow_events: usize,
    fallback_events: usize,
}

impl EvalArena {
    /// An empty arena; buffers appear on first use.
    pub fn new() -> Self {
        EvalArena {
            bufs: Vec::new(),
            grow_events: 0,
            fallback_events: 0,
        }
    }

    /// Marks every buffer free (capacity is retained). Call once per
    /// clip before [`EvalArena::load_clip`].
    pub fn reset(&mut self) {
        for b in &mut self.bufs {
            b.in_use = false;
        }
    }

    /// Current allocation statistics.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            grow_events: self.grow_events,
            fallback_events: self.fallback_events,
            buffers: self.bufs.len(),
            capacity: self.bufs.iter().map(|b| b.data.len()).sum(),
        }
    }

    /// Records one allocating-fallback `eval_into` call (used by the
    /// default trait implementation).
    pub fn note_fallback(&mut self) {
        self.fallback_events += 1;
    }

    /// Acquires a buffer of `shape`, reusing a free one when possible.
    ///
    /// Contents are unspecified (possibly stale) — every `eval_into`
    /// kernel fully overwrites its output.
    pub fn acquire(&mut self, shape: Shape) -> BufId {
        let want = shape.len();
        // Best-fit among free buffers with enough capacity; otherwise
        // grow the largest free buffer; otherwise add a new one.
        let mut best: Option<(usize, usize)> = None; // (idx, capacity)
        let mut largest_free: Option<(usize, usize)> = None;
        for (i, b) in self.bufs.iter().enumerate() {
            if b.in_use {
                continue;
            }
            let cap = b.data.len();
            let better_fit = match best {
                None => cap >= want,
                Some((_, c)) => cap >= want && cap < c,
            };
            if better_fit {
                best = Some((i, cap));
            }
            let larger = match largest_free {
                None => true,
                Some((_, c)) => cap > c,
            };
            if larger {
                largest_free = Some((i, cap));
            }
        }
        let idx = match best.or(largest_free) {
            Some((i, _)) => i,
            None => {
                self.grow_events += 1;
                self.bufs.push(Buf {
                    data: Vec::new(),
                    len: 0,
                    shape,
                    in_use: false,
                });
                self.bufs.len() - 1
            }
        };
        let b = &mut self.bufs[idx];
        if b.data.len() < want {
            self.grow_events += 1;
            b.data.resize(want, 0.0);
        }
        b.len = want;
        b.shape = shape;
        b.in_use = true;
        BufId(idx)
    }

    /// Returns a buffer to the free list.
    pub fn release(&mut self, id: BufId) {
        self.bufs[id.0].in_use = false;
    }

    /// Copies a clip into a freshly acquired buffer.
    pub fn load_clip(&mut self, clip: &p3d_tensor::Tensor) -> BufId {
        let id = self.acquire(clip.shape());
        self.bufs[id.0].data[..clip.len()].copy_from_slice(clip.data());
        id
    }

    /// The buffer's shape.
    pub fn shape(&self, id: BufId) -> Shape {
        self.bufs[id.0].shape
    }

    /// Reinterprets the buffer with an equal-length shape (Flatten's
    /// zero-cost path).
    ///
    /// # Panics
    ///
    /// Panics if the element count differs.
    pub fn set_shape(&mut self, id: BufId, shape: Shape) {
        let b = &mut self.bufs[id.0];
        assert_eq!(shape.len(), b.len, "set_shape length mismatch");
        b.shape = shape;
    }

    /// Read access to a buffer.
    pub fn buf(&self, id: BufId) -> &[f32] {
        let b = &self.bufs[id.0];
        &b.data[..b.len]
    }

    /// Write access to a buffer.
    pub fn buf_mut(&mut self, id: BufId) -> &mut [f32] {
        let b = &mut self.bufs[id.0];
        &mut b.data[..b.len]
    }

    /// Simultaneous read access to `src` and write access to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`.
    pub fn pair(&mut self, src: BufId, dst: BufId) -> (&[f32], &mut [f32]) {
        assert_ne!(src.0, dst.0, "pair requires distinct buffers");
        if src.0 < dst.0 {
            let (head, tail) = self.bufs.split_at_mut(dst.0);
            let s = &head[src.0];
            let d = &mut tail[0];
            (&s.data[..s.len], &mut d.data[..d.len])
        } else {
            let (head, tail) = self.bufs.split_at_mut(src.0);
            let s = &tail[0];
            let d = &mut head[dst.0];
            (&s.data[..s.len], &mut d.data[..d.len])
        }
    }

    /// Copies `src` into a newly acquired buffer of the same shape
    /// (used by residual blocks to save the block input for the
    /// shortcut path).
    pub fn duplicate(&mut self, src: BufId) -> BufId {
        let shape = self.shape(src);
        let copy = self.acquire(shape);
        let (s, d) = self.pair(src, copy);
        d.copy_from_slice(s);
        copy
    }
}

impl Default for EvalArena {
    fn default() -> Self {
        EvalArena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3d_tensor::Tensor;

    #[test]
    fn acquire_reuses_released_buffers() {
        let mut a = EvalArena::new();
        let b1 = a.acquire(Shape::d2(4, 4));
        a.release(b1);
        let before = a.stats().grow_events;
        let b2 = a.acquire(Shape::d2(2, 8));
        assert_eq!(b1, b2, "same capacity buffer must be reused");
        assert_eq!(a.stats().grow_events, before, "reuse must not grow");
    }

    #[test]
    fn steady_state_does_not_grow() {
        let mut a = EvalArena::new();
        // Simulate two layers' acquire/release pattern over 3 "clips".
        let mut grows = Vec::new();
        for _ in 0..3 {
            a.reset();
            let x = a.acquire(Shape::d1(100));
            let y = a.acquire(Shape::d1(60));
            a.release(x);
            let z = a.acquire(Shape::d1(100));
            a.release(y);
            a.release(z);
            grows.push(a.stats().grow_events);
        }
        assert_eq!(grows[1], grows[0], "second clip must not allocate");
        assert_eq!(grows[2], grows[0], "third clip must not allocate");
    }

    #[test]
    fn load_clip_roundtrip() {
        let mut a = EvalArena::new();
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let id = a.load_clip(&t);
        assert_eq!(a.buf(id), t.data());
        assert_eq!(a.shape(id), t.shape());
    }

    #[test]
    fn pair_splits_borrows_both_orders() {
        let mut a = EvalArena::new();
        let x = a.acquire(Shape::d1(3));
        let y = a.acquire(Shape::d1(3));
        a.buf_mut(x).copy_from_slice(&[1., 2., 3.]);
        {
            let (s, d) = a.pair(x, y);
            d.copy_from_slice(s);
        }
        {
            let (s, d) = a.pair(y, x);
            assert_eq!(s, &[1., 2., 3.]);
            d[0] = 9.0;
        }
        assert_eq!(a.buf(x)[0], 9.0);
    }

    #[test]
    fn set_shape_is_length_checked() {
        let mut a = EvalArena::new();
        let x = a.acquire(Shape::d2(2, 3));
        a.set_shape(x, Shape::d1(6));
        assert_eq!(a.shape(x).dims(), &[6]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_shape_rejects_bad_length() {
        let mut a = EvalArena::new();
        let x = a.acquire(Shape::d2(2, 3));
        a.set_shape(x, Shape::d1(7));
    }

    #[test]
    fn duplicate_copies_contents() {
        let mut a = EvalArena::new();
        let t = Tensor::from_vec([4], vec![1., -2., 3., -4.]);
        let x = a.load_clip(&t);
        let c = a.duplicate(x);
        assert_ne!(x, c);
        assert_eq!(a.buf(c), t.data());
    }
}
