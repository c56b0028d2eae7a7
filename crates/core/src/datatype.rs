//! Predefined MPI datatypes and the message body, [`Payload`].
//!
//! Application buffers are typed Rust slices. The [`Datatype`] trait marks
//! the ten plain-old-data element types that play the role of the
//! predefined MPI datatypes (`MPI_INT`, `MPI_DOUBLE`, …).
//!
//! A message body is a [`Payload`]: a view — an element range — of an
//! immutable reference-counted block that keeps its element type. The block
//! is either the sender's elements copied once, by one `memcpy`
//! ([`Payload::pack`]), or a rank's own buffer, shared without a copy
//! ([`crate::SharedSlice::share`]; the buffer copies itself on its next
//! write if the body is still alive, so a body is always a snapshot). The
//! maestro moves the handle, never the bytes; sending one body to many
//! peers (a broadcast, a restarted persistent send) bumps a count, and
//! [`Payload::slice`] forwards part of a body (a scatter's subtree) in
//! O(1). The receiver copies the viewed elements out once — into its own
//! buffer ([`Payload::unpack_into`], no allocation) or into a fresh vector
//! ([`Payload::to_vec`], one allocation). Only a receive that names a
//! *different* element type than the send (an `MPI_BYTE` view of doubles)
//! goes through bytes: the viewed elements' little-endian representation,
//! re-encoded one at a time. A fresh block — a packed body, a received
//! vector — is advised huge pages before its one copy writes it
//! ([`simix::advise_huge_pages`]), so a large one is faulted in 2 MiB at a
//! time. All of it is safe code.

use std::ops::{Bound, Range, RangeBounds};
use std::sync::Arc;

/// A plain-old-data element type usable in MPI messages.
///
/// # Safety-free by construction
/// Implementations only use safe copies and byte conversions; no `unsafe`
/// casts. The set is closed: a [`Payload`] holds one of these ten.
pub trait Datatype: Copy + Default + Send + Sync + 'static {
    /// Size of one element in bytes (`MPI_Type_size`).
    const SIZE: usize;
    /// Human-readable MPI-style name.
    const NAME: &'static str;

    /// Serializes one element into `out` (exactly `SIZE` bytes).
    fn write_bytes(&self, out: &mut [u8]);
    /// Deserializes one element from `input` (exactly `SIZE` bytes).
    fn from_bytes(input: &[u8]) -> Self;

    /// Wraps `block[view]` as a message body.
    #[doc(hidden)]
    fn wrap(block: Arc<Vec<Self>>, view: Range<usize>) -> Payload;
    /// The viewed elements of a body of this type; `None` for a body of
    /// another type.
    #[doc(hidden)]
    fn peek(body: &Payload) -> Option<&[Self]>;
}

/// An immutable, reference-counted message body: a range of elements of a
/// shared block. Cloning and [`slice`](Self::slice) share the block; length,
/// unpacking and equality read only the viewed elements. A zero-byte body
/// owns no block.
#[derive(Clone)]
pub struct Payload {
    block: Block,
    /// The viewed elements of `block`, in elements of its type.
    view: Range<usize>,
}

macro_rules! datatypes {
    ($($t:ty => $variant:ident, $name:expr;)*) => {
        #[derive(Clone)]
        enum Block {
            Empty,
            $($variant(Arc<Vec<$t>>),)*
        }

        $(impl Datatype for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            const NAME: &'static str = $name;

            fn write_bytes(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }

            fn from_bytes(input: &[u8]) -> Self {
                <$t>::from_le_bytes(input.try_into().expect("element size"))
            }

            fn wrap(block: Arc<Vec<Self>>, view: Range<usize>) -> Payload {
                if view.is_empty() {
                    Payload::EMPTY
                } else {
                    Payload { block: Block::$variant(block), view }
                }
            }

            fn peek(body: &Payload) -> Option<&[Self]> {
                match &body.block {
                    Block::Empty => Some(&[]),
                    Block::$variant(elems) => Some(&elems[body.view.clone()]),
                    _ => None,
                }
            }
        })*

        impl Payload {
            /// Size of the body in bytes.
            pub fn len(&self) -> usize {
                self.view.len()
                    * match &self.block {
                        Block::Empty => 0,
                        $(Block::$variant(_) => <$t>::SIZE,)*
                    }
            }

            /// MPI-style name of the element type the body was packed from.
            fn type_name(&self) -> &'static str {
                match &self.block {
                    Block::Empty => "empty",
                    $(Block::$variant(_) => <$t>::NAME,)*
                }
            }

            /// The viewed elements as bytes, for a receive of another
            /// element type.
            fn bytes(&self) -> Vec<u8> {
                match &self.block {
                    Block::Empty => Vec::new(),
                    $(Block::$variant(elems) => to_bytes(&elems[self.view.clone()]),)*
                }
            }
        }

        /// Equal element types and equal viewed elements, whatever blocks
        /// they view.
        impl PartialEq for Payload {
            fn eq(&self, other: &Payload) -> bool {
                match (&self.block, &other.block) {
                    (Block::Empty, Block::Empty) => true,
                    $((Block::$variant(_), Block::$variant(_)) => {
                        <$t>::peek(self) == <$t>::peek(other)
                    })*
                    _ => false,
                }
            }
        }
    };
}

datatypes! {
    u8 => U8, "MPI_BYTE";
    i8 => I8, "MPI_CHAR";
    u16 => U16, "MPI_UNSIGNED_SHORT";
    i16 => I16, "MPI_SHORT";
    u32 => U32, "MPI_UNSIGNED";
    i32 => I32, "MPI_INT";
    u64 => U64, "MPI_UNSIGNED_LONG";
    i64 => I64, "MPI_LONG";
    f32 => F32, "MPI_FLOAT";
    f64 => F64, "MPI_DOUBLE";
}

impl Payload {
    /// The zero-byte body.
    const EMPTY: Payload = Payload {
        block: Block::Empty,
        view: 0..0,
    };

    /// Copies `data` into a fresh body: the one encode of the message path.
    pub fn pack<T: Datatype>(data: &[T]) -> Payload {
        Payload::from_vec(fresh_copy(data))
    }

    /// Adopts `elems` as the block of a fresh body, without a copy.
    pub(crate) fn from_vec<T: Datatype>(elems: Vec<T>) -> Payload {
        if elems.is_empty() {
            Payload::EMPTY
        } else {
            let n = elems.len();
            T::wrap(Arc::new(elems), 0..n)
        }
    }

    /// The elements `range` of this body, in elements of the type it was
    /// packed from, as a body that shares the block: O(1), no copy. An
    /// empty range gives the zero-byte body. Panics if `range` reaches
    /// past the end of this body.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Payload {
        let n = self.view.len();
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => n,
        };
        assert!(
            start <= end && end <= n,
            "range {start}..{end} out of bounds of a body of {n} elements"
        );
        if start == end {
            return Payload::EMPTY;
        }
        let base = self.view.start;
        Payload {
            block: self.block.clone(),
            view: base + start..base + end,
        }
    }

    /// `true` for a zero-byte body.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the body into the front of `out` and returns the number of
    /// elements written; a body shorter than `out` (a short message) leaves
    /// the rest untouched. Panics if the body is not a whole number of `T`
    /// elements or overflows `out`.
    pub fn unpack_into<T: Datatype>(&self, out: &mut [T]) -> usize {
        match T::peek(self) {
            Some(elems) => {
                check_fits(elems.len(), out.len());
                out[..elems.len()].copy_from_slice(elems);
                elems.len()
            }
            None => from_bytes(&self.bytes(), out),
        }
    }

    /// Copies the body into a fresh vector. Panics if the body is not a
    /// whole number of `T` elements.
    pub fn to_vec<T: Datatype>(&self) -> Vec<T> {
        match T::peek(self) {
            Some(elems) => fresh_copy(elems),
            None => {
                let bytes = self.bytes();
                assert_eq!(
                    bytes.len() % T::SIZE,
                    0,
                    "message is not a whole number of {} elements",
                    T::NAME
                );
                let mut out = zeroed(bytes.len() / T::SIZE);
                from_bytes(&bytes, &mut out);
                out
            }
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Payload({} B of {})", self.len(), self.type_name())
    }
}

/// A copy of `src` in one fresh block, advised huge pages before the copy
/// writes it ([`simix::advise_huge_pages`]): one allocation, one `memcpy`.
fn fresh_copy<T: Copy>(src: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(src.len());
    simix::advise_huge_pages(out.spare_capacity_mut());
    out.extend_from_slice(src);
    out
}

/// `len` zero elements in one fresh calloc'd block, advised huge pages
/// before anything writes it: calloc leaves a fresh mapping untouched, so
/// the first write faults it in.
pub(crate) fn zeroed<T: Datatype>(len: usize) -> Vec<T> {
    let out = vec![T::default(); len];
    simix::advise_huge_pages(&out);
    out
}

fn check_fits(n: usize, capacity: usize) {
    assert!(
        n <= capacity,
        "message of {n} elements overflows receive buffer of {capacity}"
    );
}

/// Serializes a typed slice into a fresh byte vector, element by element.
fn to_bytes<T: Datatype>(data: &[T]) -> Vec<u8> {
    let mut out = vec![0u8; data.len() * T::SIZE];
    for (elem, chunk) in data.iter().zip(out.chunks_exact_mut(T::SIZE)) {
        elem.write_bytes(chunk);
    }
    out
}

/// Deserializes bytes into a typed output slice, element by element.
/// `bytes` may be shorter than the buffer (a short message); returns the
/// number of elements written. Panics if `bytes` is not a whole number of
/// elements or overflows `out`.
fn from_bytes<T: Datatype>(bytes: &[u8], out: &mut [T]) -> usize {
    assert!(
        bytes.len().is_multiple_of(T::SIZE),
        "message of {} bytes is not a whole number of {} elements",
        bytes.len(),
        T::NAME
    );
    let n = bytes.len() / T::SIZE;
    check_fits(n, out.len());
    for (chunk, slot) in bytes.chunks_exact(T::SIZE).zip(out.iter_mut()) {
        *slot = T::from_bytes(chunk);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_c_expectations() {
        assert_eq!(<u8 as Datatype>::SIZE, 1);
        assert_eq!(<i32 as Datatype>::SIZE, 4);
        assert_eq!(<f64 as Datatype>::SIZE, 8);
    }

    #[test]
    fn roundtrip_f64() {
        let data = [1.5f64, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE];
        let bytes = to_bytes(&data);
        assert_eq!(bytes.len(), 40);
        let mut out = [0.0f64; 5];
        assert_eq!(from_bytes(&bytes, &mut out), 5);
        assert_eq!(out, data);
    }

    #[test]
    fn roundtrip_i32_preserves_sign() {
        let data = [i32::MIN, -1, 0, 1, i32::MAX];
        let bytes = to_bytes(&data);
        let mut out = [0i32; 5];
        from_bytes(&bytes, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn short_message_fills_prefix() {
        let bytes = to_bytes(&[7u32, 8]);
        let mut out = [0u32; 4];
        assert_eq!(from_bytes(&bytes, &mut out), 2);
        assert_eq!(out, [7, 8, 0, 0]);
    }

    #[test]
    #[should_panic]
    fn misaligned_message_panics() {
        let mut out = [0u32; 2];
        from_bytes(&[1, 2, 3], &mut out);
    }

    #[test]
    #[should_panic]
    fn overflow_panics() {
        let bytes = to_bytes(&[1u8, 2, 3]);
        let mut out = [0u8; 2];
        from_bytes(&bytes, &mut out);
    }

    /// The block a body views, or `None` for the zero-byte body.
    fn block_of(body: &Payload) -> Option<&Arc<Vec<f64>>> {
        match &body.block {
            Block::F64(elems) => Some(elems),
            Block::Empty => None,
            _ => panic!("a body of doubles"),
        }
    }

    #[test]
    fn body_keeps_its_type_and_shares_on_clone() {
        let body = Payload::pack(&[1.5f64, -2.0]);
        assert_eq!((body.len(), body.type_name()), (16, "MPI_DOUBLE"));
        assert_eq!(format!("{body:?}"), "Payload(16 B of MPI_DOUBLE)");
        let clone = body.clone();
        let (a, b) = (block_of(&body).unwrap(), block_of(&clone).unwrap());
        assert!(Arc::ptr_eq(a, b), "a clone shares the block");
        assert!(matches!(Payload::pack::<i16>(&[]).block, Block::Empty));
    }

    #[test]
    fn nested_slices_view_the_same_block() {
        let data: Vec<f64> = (0..10).map(f64::from).collect();
        let body = Payload::pack(&data);
        let mid = body.slice(2..8);
        let inner = mid.slice(1..=2);
        assert_eq!((mid.len(), inner.len()), (48, 16));
        assert_eq!(mid.to_vec::<f64>(), &data[2..8]);
        assert_eq!(inner.to_vec::<f64>(), [3.0, 4.0]);
        assert_eq!(mid.slice(4..).to_vec::<f64>(), [6.0, 7.0]);
        assert_eq!(body.slice(..), body);
        let mut out = [-1.0; 3];
        assert_eq!(inner.unpack_into(&mut out), 2);
        assert_eq!(out, [3.0, 4.0, -1.0]);
        let block = block_of(&body).unwrap();
        assert!(Arc::ptr_eq(block, block_of(&inner).unwrap()));
        assert_eq!(Arc::strong_count(block), 3, "slicing copies no element");
    }

    #[test]
    #[should_panic(expected = "range 2..11 out of bounds of a body of 10 elements")]
    fn a_slice_past_the_end_panics() {
        let _ = Payload::pack(&[0u32; 10]).slice(2..11);
    }

    #[test]
    #[should_panic(expected = "range 0..7 out of bounds of a body of 6 elements")]
    fn a_nested_slice_is_bounded_by_its_view_not_its_block() {
        let _ = Payload::pack(&[0u32; 10]).slice(2..8).slice(..7);
    }

    #[test]
    fn an_empty_view_owns_no_block() {
        let body = Payload::pack(&[1.0f64, 2.0, 3.0]);
        let empty = body.slice(1..1);
        assert!(empty.is_empty());
        assert!(block_of(&empty).is_none());
        assert_eq!(Arc::strong_count(block_of(&body).unwrap()), 1);
        assert_eq!(empty, Payload::pack::<u8>(&[]));
        assert_eq!(empty.to_vec::<f64>(), []);
    }

    #[test]
    fn a_byte_receive_of_a_view_reads_only_the_view() {
        let view = Payload::pack(&[1.0f64, 2.0, 3.0]).slice(1..2);
        assert_eq!(view.to_vec::<u8>(), 2.0f64.to_le_bytes());
        let mut bytes = [0xA5u8; 12];
        assert_eq!(view.unpack_into(&mut bytes), 8);
        assert_eq!(bytes[..8], 2.0f64.to_le_bytes());
        assert_eq!(bytes[8..], [0xA5; 4]);
    }

    #[test]
    fn equality_compares_viewed_elements_not_blocks() {
        let a = Payload::pack(&[1u32, 2, 3, 4]).slice(1..3);
        let b = Payload::pack(&[9u32, 2, 3]).slice(1..);
        assert_eq!(a, b);
        assert_ne!(a, Payload::pack(&[2u32, 4]));
        assert_ne!(Payload::pack(&[1u32]), Payload::pack(&[1i32]));
    }

    #[test]
    fn another_element_type_reads_the_little_endian_bytes() {
        let body = Payload::pack(&[0x0403_0201u32, 0x0807_0605]);
        assert_eq!(body.to_vec::<u8>(), [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(body.to_vec::<u64>(), [0x0807_0605_0403_0201]);
        let mut halves = [0u16; 5];
        assert_eq!(body.unpack_into(&mut halves), 4);
        assert_eq!(halves, [0x0201, 0x0403, 0x0605, 0x0807, 0]);
        let mut floats = [0f32; 2];
        Payload::pack(&1f32.to_le_bytes()).unpack_into(&mut floats);
        assert_eq!(floats, [1.0, 0.0]);
    }

    /// Run by hand, release only:
    /// `cargo test --release -p smpi --lib pack_speed -- --ignored --nocapture`.
    /// Milliseconds to move 16 MiB of each datatype, best of 5: `pack` and
    /// `to_vec` beside a copy into a fresh buffer (all three fault their
    /// destination in), `unpack_into` beside a copy into a warm one.
    #[test]
    #[ignore = "measurement, release only"]
    fn pack_speed() {
        use std::hint::black_box;
        use std::time::Instant;

        fn best_ms<R>(mut f: impl FnMut() -> R) -> f64 {
            (0..5)
                .map(|_| {
                    let t = Instant::now();
                    black_box(f());
                    t.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min)
        }

        fn row<T: Datatype>() {
            let n = (16 << 20) / T::SIZE;
            let pattern: Vec<u8> = (0..16 << 20).map(|i| (i % 251) as u8).collect();
            let mut src = vec![T::default(); n];
            from_bytes(&pattern, &mut src);
            let body = Payload::pack(&src);
            let mut warm = vec![T::default(); n];
            warm.copy_from_slice(&src);
            let pack = best_ms(|| Payload::pack(black_box(&src)));
            let to_vec = best_ms(|| body.to_vec::<T>());
            let fresh = best_ms(|| black_box(&src).to_vec());
            let unpack = best_ms(|| body.unpack_into(black_box(&mut warm)));
            let copy = best_ms(|| black_box(&mut warm).copy_from_slice(black_box(&src)));
            println!(
                "{:<20} pack {pack:6.2}  to_vec {to_vec:6.2}  copy(fresh) {fresh:6.2}  \
                 unpack_into {unpack:6.2}  copy(warm) {copy:6.2}",
                T::NAME
            );
        }

        row::<u8>();
        row::<i8>();
        row::<u16>();
        row::<i16>();
        row::<u32>();
        row::<i32>();
        row::<u64>();
        row::<i64>();
        row::<f32>();
        row::<f64>();
    }
}
