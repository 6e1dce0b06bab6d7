//! Tallies written once: [`tally!`] turns one field list into the
//! struct, its field-wise `merge` and its canonical wire codec.

/// Declares a mergeable tally from one field list. Each field names its
/// merge rule:
///
/// - `sum`: counters and float totals add;
/// - `max`: high-water marks keep the larger;
/// - `each`: fixed arrays add element-wise;
/// - `merge`: sketches and nested tallies merge.
///
/// The wire form follows the field's type through
/// [`Wire`](crate::wire::Wire): integers as decimals, floats as the
/// bit-exact hex of their bits, sketches and nested tallies as objects,
/// arrays as arrays. The codec writes one object keyed by field name in
/// declaration order, so reordering fields changes the wire bytes.
///
/// `tally! { pub struct Name { pub field: Type => rule, ... } }`
/// declares the struct with an inherent `merge`. The impl-only form
/// `tally! { impl Name { field => rule, ... } }` covers a tally declared
/// in another crate; its `merge` comes through [`Merge`]. The codec-only
/// form `tally! { wire Name { field, ... } }` serves values that never
/// merge, such as matrix specs.
macro_rules! tally {
    (@merge sum $a:expr, $b:expr) => { $a += $b };
    (@merge max $a:expr, $b:expr) => { $a = $a.max($b) };
    (@merge each $a:expr, $b:expr) => {
        for (a, b) in $a.iter_mut().zip(&$b) {
            *a += *b;
        }
    };
    (@merge merge $a:expr, $b:expr) => { $a.merge(&$b) };
    (wire $name:ident { $first:ident, $($field:ident,)* }) => {
        impl $crate::wire::Wire for $name {
            fn encode(&self, out: &mut String) {
                out.push_str(concat!("{\"", stringify!($first), "\":"));
                $crate::wire::Wire::encode(&self.$first, out);
                $(
                    out.push_str(concat!(",\"", stringify!($field), "\":"));
                    $crate::wire::Wire::encode(&self.$field, out);
                )*
                out.push('}');
            }

            fn decode(v: &$crate::wire::Json) -> Result<Self, String> {
                Ok($name {
                    $first: $crate::wire::member(v, stringify!($first))?,
                    $($field: $crate::wire::member(v, stringify!($field))?,)*
                })
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$doc:meta])* pub $field:ident: $ty:ty => $rule:ident,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl $name {
            /// Merges `other` into `self` field by field: counters and
            /// float totals add, high-water marks keep the larger,
            /// sketches and nested tallies merge. Merge in a fixed order
            /// (the fleet runner uses matrix order) for bit-identical
            /// floating-point sums.
            pub fn merge(&mut self, other: &$name) {
                $($crate::tally::tally!(@merge $rule self.$field, other.$field);)*
            }
        }

        $crate::tally::tally!(wire $name { $($field,)* });
    };
    (impl $name:ident { $($field:ident => $rule:ident,)* }) => {
        impl $crate::tally::Merge for $name {
            fn merge(&mut self, other: &$name) {
                $($crate::tally::tally!(@merge $rule self.$field, other.$field);)*
            }
        }

        $crate::tally::tally!(wire $name { $($field,)* });
    };
}

pub(crate) use tally;

/// Field-wise merge for a tally declared in another crate, generated by
/// the impl-only form of [`tally!`].
pub(crate) trait Merge {
    /// Merges `other` into `self`.
    fn merge(&mut self, other: &Self);
}
