//! Predefined MPI datatypes and the message body, [`Payload`].
//!
//! Application buffers are typed Rust slices. The [`Datatype`] trait marks
//! the ten plain-old-data element types that play the role of the
//! predefined MPI datatypes (`MPI_INT`, `MPI_DOUBLE`, …).
//!
//! A message body is a [`Payload`]: the sender's elements copied once, by
//! one `memcpy`, into an immutable reference-counted block that keeps its
//! element type. The maestro moves the handle, never the bytes; sending one
//! body to many peers (a broadcast, a restarted persistent send) bumps a
//! count. The receiver copies the elements out once — into its own buffer
//! ([`Payload::unpack_into`], no allocation) or into a fresh vector
//! ([`Payload::to_vec`], one allocation). Only a receive that names a
//! *different* element type than the send (an `MPI_BYTE` view of doubles)
//! goes through bytes: the elements' little-endian representation,
//! re-encoded one at a time. All of it is safe code.

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

    /// Wraps a block of elements as a message body.
    #[doc(hidden)]
    fn wrap(body: Arc<[Self]>) -> Payload;
    /// The elements of a body packed from this type; `None` for a body of
    /// another type.
    #[doc(hidden)]
    fn peek(body: &Payload) -> Option<&[Self]>;
}

/// An immutable, reference-counted message body: what [`Payload::pack`]
/// copied out of the sender's buffer. Cloning shares the block. A zero-byte
/// body owns no allocation.
#[derive(Clone, PartialEq)]
pub struct Payload(Body);

macro_rules! datatypes {
    ($($t:ty => $variant:ident, $name:expr;)*) => {
        #[derive(Clone, PartialEq)]
        enum Body {
            Empty,
            $($variant(Arc<[$t]>),)*
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

            fn wrap(body: Arc<[Self]>) -> Payload {
                Payload(Body::$variant(body))
            }

            fn peek(body: &Payload) -> Option<&[Self]> {
                match &body.0 {
                    Body::Empty => Some(&[]),
                    Body::$variant(elems) => Some(elems),
                    _ => None,
                }
            }
        })*

        impl Payload {
            /// Size of the body in bytes.
            pub fn len(&self) -> usize {
                match &self.0 {
                    Body::Empty => 0,
                    $(Body::$variant(elems) => elems.len() * <$t>::SIZE,)*
                }
            }

            /// MPI-style name of the element type the body was packed from.
            fn type_name(&self) -> &'static str {
                match &self.0 {
                    Body::Empty => "empty",
                    $(Body::$variant(_) => <$t>::NAME,)*
                }
            }

            /// The body as bytes, for a receive of another element type.
            fn bytes(&self) -> Vec<u8> {
                match &self.0 {
                    Body::Empty => Vec::new(),
                    $(Body::$variant(elems) => to_bytes(elems),)*
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
    /// Copies `data` into a fresh body: the one encode of the message path.
    pub fn pack<T: Datatype>(data: &[T]) -> Payload {
        if data.is_empty() {
            Payload(Body::Empty)
        } else {
            T::wrap(Arc::from(data))
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
            Some(elems) => elems.to_vec(),
            None => {
                let bytes = self.bytes();
                assert_eq!(
                    bytes.len() % T::SIZE,
                    0,
                    "message is not a whole number of {} elements",
                    T::NAME
                );
                let mut out = vec![T::default(); bytes.len() / T::SIZE];
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

    #[test]
    fn body_keeps_its_type_and_shares_on_clone() {
        let body = Payload::pack(&[1.5f64, -2.0]);
        assert_eq!((body.len(), body.type_name()), (16, "MPI_DOUBLE"));
        assert_eq!(format!("{body:?}"), "Payload(16 B of MPI_DOUBLE)");
        let Body::F64(a) = &body.0 else {
            panic!("typed body")
        };
        let Body::F64(b) = &body.clone().0 else {
            panic!("typed body")
        };
        assert!(Arc::ptr_eq(a, b), "a clone shares the block");
        assert!(matches!(Payload::pack::<i16>(&[]).0, Body::Empty));
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
