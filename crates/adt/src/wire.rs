//! The workspace's one binary codec.
//!
//! The workspace vendors no serializer crate, so everything that
//! leaves a process — engine messages over `cbm_net::tcp`, leg specs
//! and reports over the bench control protocol, epoch-log records on
//! disk — encodes through the hand-rolled [`Wire`] trait instead. The
//! format is little-endian, length-prefixed where variable, and
//! deliberately boring: no self-description, no versioning beyond the
//! frame layer's handshake, because both ends of every connection are
//! the same binary. Probabilities encode as `f64::to_bits` — bit-exact
//! round-trips, no text formatting loss, which matters because chaos
//! rolls are seeded *and* thresholded deterministically.
//!
//! The trait lives here, at the bottom of the crate graph, so that an
//! ADT's alphabets can implement it next to their definition and every
//! layer above (`cbm-net`, `cbm-store`, `cbm-bench`) bounds on the same
//! trait. Composite impls live in the crate that defines the type
//! (the orphan rule no longer forces a second trait anywhere).
//!
//! ## Putting a new ADT on the live store
//!
//! Implement [`crate::Adt`] and implement [`Wire`] for its `Input`,
//! `Output` and `State` types, in this crate — nothing else. The
//! engine, the socket transport and the durable epoch log are generic
//! over `T: Adt` with `Wire` alphabets (see [`crate::register`] and
//! [`crate::counter`] for the two the bench workloads drive).
//!
//! Plain records state their field list once with [`wire_struct!`]
//! and tagged enums their `tag => Variant` table once with
//! [`wire_enum!`]; both generate the two directions, so `put` and `get`
//! cannot drift apart. Impls are hand-written only where decoding does
//! real work (narrowed widths, label interning, an absent slot).
//!
//! ## Why every impl is `#[inline]`
//!
//! A release build here has no LTO and 16 codegen units, and the sealed
//! benchmark is its own workspace root, so no profile setting of ours
//! reaches it. Without LTO, a non-generic function in this crate is
//! compiled once, here, and every other crate calls it out of line:
//! without the attribute, `<u32 as Wire>::put` inside the `WireOp` and
//! `StoreMsg` codecs that `cbm-store` monomorphises is a call, a frame
//! and a `Vec` capacity check for four bytes. `#[inline]` puts the body
//! into each caller's crate, where the optimiser folds a record's
//! fields into straight-line code. So every `put` and `get` below
//! carries it, as do the bodies [`wire_struct!`] and [`wire_enum!`]
//! generate; a hand-written impl on the engine's path needs it too.
//! CI's "An inlinable codec" lint counts the ones that lack it in this
//! file and in `KnowledgeDelta`'s impl.
//!
//! [`wire_struct!`]: crate::wire_struct
//! [`wire_enum!`]: crate::wire_enum

/// A value with a canonical little-endian wire form.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Decode one value starting at `*pos`, advancing `*pos` past it.
    /// `None` on truncated or malformed input (socket peers and disk
    /// contents are not trusted to be well-formed; decoders never
    /// panic on bytes).
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self>;
}

/// Encode a value to a fresh buffer.
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.put(&mut out);
    out
}

/// Decode a value that must consume the entire buffer.
pub fn from_bytes<T: Wire>(buf: &[u8]) -> Option<T> {
    let mut pos = 0;
    let v = T::get(buf, &mut pos)?;
    (pos == buf.len()).then_some(v)
}

/// Append a slice in the `Vec<T>` wire form (length, then elements).
pub fn put_slice<T: Wire>(v: &[T], out: &mut Vec<u8>) {
    v.len().put(out);
    for x in v {
        x.put(out);
    }
}

/// Implement [`Wire`] for a plain struct (optionally generic over
/// `Wire` parameters) from **one** statement of its field list: fields
/// encode in the listed order and decode in the same order.
///
/// ```
/// use cbm_adt::wire::{from_bytes, to_bytes};
///
/// #[derive(Debug, PartialEq)]
/// struct Stamp { time: u64, pid: usize }
/// cbm_adt::wire_struct!(Stamp { time, pid });
///
/// let s = Stamp { time: 7, pid: 2 };
/// assert_eq!(from_bytes::<Stamp>(&to_bytes(&s)), Some(s));
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident $(<$($g:ident),+>)? { $($field:ident),+ $(,)? }) => {
        impl $(<$($g: $crate::wire::Wire),+>)? $crate::wire::Wire for $ty $(<$($g),+>)? {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::wire::Wire::put(&self.$field, out);)+
            }
            #[inline]
            fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
                Some($ty {
                    $($field: $crate::wire::Wire::get(buf, pos)?,)+
                })
            }
        }
    };
}

/// Implement [`Wire`] for a tagged enum from **one** table of
/// `tag => Variant` rows: a one-byte tag, then the variant's fields in
/// the listed order. Unit, tuple and struct variants are all accepted
/// (the names in a tuple variant only state its arity); an unknown tag
/// decodes to `None`.
///
/// ```
/// use cbm_adt::wire::{from_bytes, to_bytes};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape { Dot, Circle(u32), Rect { w: u32, h: u32 } }
/// cbm_adt::wire_enum!(Shape { 0 => Dot, 1 => Circle(r), 2 => Rect { w, h } });
///
/// assert_eq!(to_bytes(&Shape::Circle(7)), [1, 7, 0, 0, 0]);
/// let r = Shape::Rect { w: 3, h: 4 };
/// assert_eq!(from_bytes::<Shape>(&to_bytes(&r)), Some(r));
/// assert_eq!(from_bytes::<Shape>(&[3]), None);
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident $(<$($g:ident),+>)? {
        $($tag:literal => $var:ident $(($($t:ident),+))? $({ $($f:ident),+ })?),+ $(,)?
    }) => {
        impl $(<$($g: $crate::wire::Wire),+>)? $crate::wire::Wire for $ty $(<$($g),+>)? {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$var $(($($t),+))? $({ $($f),+ })? => {
                        out.push($tag);
                        $($($crate::wire::Wire::put($t, out);)+)?
                        $($($crate::wire::Wire::put($f, out);)+)?
                    })+
                }
            }
            #[inline]
            fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
                Some(match <u8 as $crate::wire::Wire>::get(buf, pos)? {
                    $($tag => $ty::$var
                        $(($({ let $t = $crate::wire::Wire::get(buf, pos)?; $t }),+))?
                        $({ $($f: $crate::wire::Wire::get(buf, pos)?),+ })?,)+
                    _ => return None,
                })
            }
        }
    };
}

macro_rules! int_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
                const N: usize = std::mem::size_of::<$t>();
                let bytes = buf.get(*pos..*pos + N)?;
                *pos += N;
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}

int_wire!(u8, u16, u32, u64, u128, i64);

impl Wire for usize {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    #[inline]
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        usize::try_from(u64::get(buf, pos)?).ok()
    }
}

impl Wire for bool {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        match u8::get(buf, pos)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for f64 {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    #[inline]
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(f64::from_bits(u64::get(buf, pos)?))
    }
}

impl Wire for String {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        out.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let len = usize::get(buf, pos)?;
        let bytes = buf.get(*pos..pos.checked_add(len)?)?;
        *pos += len;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    #[inline]
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        match u8::get(buf, pos)? {
            0 => Some(None),
            1 => Some(Some(T::get(buf, pos)?)),
            _ => None,
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_slice(self, out);
    }
    #[inline]
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let len = usize::get(buf, pos)?;
        // cap preallocation by what the buffer could possibly hold, so
        // a malformed length cannot balloon memory before failing
        let mut out = Vec::with_capacity(len.min(buf.len().saturating_sub(*pos)));
        for _ in 0..len {
            out.push(T::get(buf, pos)?);
        }
        Some(out)
    }
}

/// A box is transparent on the wire (it keeps large enum variants off
/// the stack; it is not part of the format).
impl<T: Wire> Wire for Box<T> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
    #[inline]
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        T::get(buf, pos).map(Box::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    #[inline]
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some((A::get(buf, pos)?, B::get(buf, pos)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        assert_eq!(from_bytes::<T>(&bytes), Some(v));
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(123u128 << 80);
        roundtrip(true);
        roundtrip(core::f64::consts::PI);
        roundtrip(String::from("héllo"));
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip((String::from("k"), 9u64));
    }

    #[test]
    fn f64_is_bit_exact() {
        let v = 0.1f64 + 0.2;
        let bytes = to_bytes(&v);
        assert_eq!(from_bytes::<f64>(&bytes).unwrap().to_bits(), v.to_bits());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = to_bytes(&7u32);
        bytes.push(0);
        assert_eq!(from_bytes::<u32>(&bytes), None);
    }

    #[derive(Debug, PartialEq)]
    struct Pair<A, B> {
        left: A,
        right: Vec<B>,
    }
    wire_struct!(Pair<A, B> { left, right });

    #[test]
    fn wire_struct_encodes_fields_in_listed_order() {
        let p = Pair {
            left: 1u16,
            right: vec![true],
        };
        let mut expect = to_bytes(&1u16);
        expect.extend(to_bytes(&vec![true]));
        assert_eq!(to_bytes(&p), expect);
        roundtrip(p);
    }
}
