//! Strongly-typed identifiers for the CRH data model.
//!
//! The paper indexes observations as `v_im^(k)`: object `i`, property `m`,
//! source `k`. An *entry* is an `(object, property)` pair (Definition 1).
//! Newtype ids keep these four index spaces from being confused and stay
//! `Copy`-cheap (a `u32` each).

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// Index into a dense array.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Build from a dense array index.
            ///
            /// # Panics
            /// Panics if `idx` does not fit in `u32`.
            #[inline]
            pub fn from_index(idx: usize) -> Self {
                Self(u32::try_from(idx).expect("id overflow: more than u32::MAX items"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }
    };
}

id_type!(
    /// Identifier of a data source (the `k` index of the paper).
    SourceId,
    "s"
);
id_type!(
    /// Identifier of an object (the `i` index of the paper).
    ObjectId,
    "o"
);
id_type!(
    /// Identifier of a property (the `m` index of the paper).
    PropertyId,
    "p"
);
id_type!(
    /// Identifier of an entry, i.e. one `(object, property)` cell of the
    /// truth table (the `eID` of the MapReduce data format, §2.7.1).
    EntryId,
    "e"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let s = SourceId::from_index(42);
        assert_eq!(s.index(), 42);
        assert_eq!(s, SourceId(42));
    }

    #[test]
    fn display_prefixes() {
        assert_eq!(SourceId(3).to_string(), "s3");
        assert_eq!(ObjectId(3).to_string(), "o3");
        assert_eq!(PropertyId(3).to_string(), "p3");
        assert_eq!(EntryId(3).to_string(), "e3");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(EntryId(1) < EntryId(2));
    }

    #[test]
    fn from_u32() {
        let p: PropertyId = 7u32.into();
        assert_eq!(p.index(), 7);
    }

    #[test]
    #[should_panic(expected = "id overflow")]
    fn from_index_overflow_panics() {
        let _ = SourceId::from_index(u32::MAX as usize + 1);
    }
}
