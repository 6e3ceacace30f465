//! The [`Strategy`] trait and the core combinators: ranges, tuples,
//! [`Just`], `prop_map`, unions, and string patterns.

use std::ops::{Range, RangeInclusive};

use crate::test_runner::TestRng;

/// A recipe for generating values of one type.
///
/// Unlike real proptest there is no value-tree/shrinking machinery:
/// `generate` produces a finished value directly.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Produces one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { source: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A heap-allocated, type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Always produces a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.source.generate(rng))
    }
}

/// Weighted choice among type-erased strategies (`prop_oneof!`).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
}

impl<T> Union<T> {
    /// Builds a union from `(weight, strategy)` arms.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let total: u64 = self.arms.iter().map(|(w, _)| *w as u64).sum();
        let mut pick = rng.gen_below(total.max(1) as u128) as u64;
        for (weight, strategy) in &self.arms {
            if pick < *weight as u64 {
                return strategy.generate(rng);
            }
            pick -= *weight as u64;
        }
        self.arms[0].1.generate(rng)
    }
}

/// Boxes one `prop_oneof!` arm (helper used by the macro expansion).
pub fn union_arm<S>(weight: u32, strategy: S) -> (u32, BoxedStrategy<S::Value>)
where
    S: Strategy + 'static,
{
    (weight, Box::new(strategy))
}

/// `&'static str` literals act as character-class patterns generating
/// `String`s (e.g. `"[a-z0-9]{1,16}"`).
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        crate::string::generate(self, rng)
    }
}

macro_rules! int_range_strategies {
    ($($t:ty),+ $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + rng.gen_below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + rng.gen_below(span) as i128) as $t
            }
        }
    )+};
}

int_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategies {
    ($($name:ident)+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

tuple_strategies!(A);
tuple_strategies!(A B);
tuple_strategies!(A B C);
tuple_strategies!(A B C D);
tuple_strategies!(A B C D E);
tuple_strategies!(A B C D E F);
tuple_strategies!(A B C D E F G);
tuple_strategies!(A B C D E F G H);
tuple_strategies!(A B C D E F G H I);
tuple_strategies!(A B C D E F G H I J);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_case("ranges", 0);
        for _ in 0..200 {
            let v = (3u16..9).generate(&mut rng);
            assert!((3..9).contains(&v));
            let w = (0usize..=4).generate(&mut rng);
            assert!(w <= 4);
            let f = (-2.0f64..2.0).generate(&mut rng);
            assert!((-2.0..2.0).contains(&f));
            let n = (-5i32..5).generate(&mut rng);
            assert!((-5..5).contains(&n));
        }
    }

    #[test]
    fn map_and_tuple_compose() {
        let mut rng = TestRng::for_case("compose", 0);
        let strategy = (0u8..10, 0u8..10).prop_map(|(a, b)| a as u16 + b as u16);
        for _ in 0..50 {
            assert!(strategy.generate(&mut rng) < 20);
        }
    }

    #[test]
    fn union_respects_arms() {
        let mut rng = TestRng::for_case("union", 0);
        let u = Union::new(vec![union_arm(1, Just(1u8)), union_arm(3, Just(2u8))]);
        let mut saw = [false; 3];
        for _ in 0..100 {
            saw[u.generate(&mut rng) as usize] = true;
        }
        assert!(!saw[0] && saw[1] && saw[2]);
    }
}
