//! Value-generation strategies: deterministic RNG, numeric ranges, tuples,
//! vectors, and `prop_map`.

use std::ops::Range;

/// Deterministic per-case generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Create a generator whose stream is fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 random bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A recipe for generating values of one type. Mirrors the slice of
/// `proptest::strategy::Strategy` this workspace uses.
pub trait Strategy {
    /// The type of the generated values.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f` (mirrors `Strategy::prop_map`).
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

// Integer ranges sample uniformly, but with a deliberate bias toward the
// endpoints (1/8 probability each): boundary values are where off-by-one
// and degenerate-input bugs live, and without shrinking the generator has
// to find them directly. The committed cdf_monotone regression (seven
// samples at the range minimum 0.1 GB/s) is exactly this input class.
macro_rules! impl_unsigned_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u128;
                match rng.next_u64() & 7 {
                    0 => self.start,
                    1 => self.end - 1,
                    _ => self.start + ((rng.next_u64() as u128) % span) as $t,
                }
            }
        }
    )*};
}

impl_unsigned_range!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                match rng.next_u64() & 7 {
                    0 => self.start,
                    1 => self.end - 1,
                    _ => {
                        let off = ((rng.next_u64() as u128) % span) as i128;
                        (self.start as i128 + off) as $t
                    }
                }
            }
        }
    )*};
}

impl_signed_range!(i32, i64, isize);

// Float ranges keep the low-endpoint bias (exactly `start` 1/8 of the
// time) so repeated draws can collide on one value — continuous uniform
// sampling alone would never produce the duplicate-bandwidth inputs the
// CDF regression seed encodes.
macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                match rng.next_u64() & 7 {
                    0 => self.start,
                    _ => {
                        let unit = rng.unit_f64() as $t;
                        self.start + unit * (self.end - self.start)
                    }
                }
            }
        }
    )*};
}

impl_float_range!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Length specification for [`vec()`] (mirrors `proptest`'s `SizeRange`):
/// a `Range<usize>` draws the length, a bare `usize` fixes it.
#[derive(Debug, Clone)]
pub struct SizeRange {
    start: usize,
    end: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        SizeRange {
            start: r.start,
            end: r.end,
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            start: n,
            end: n + 1,
        }
    }
}

/// Strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

/// Generate a `Vec` whose length is drawn from `size` and whose elements
/// come from `element` (mirrors `proptest::collection::vec`). Lengths are
/// biased toward the minimum so failing inputs stay small.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        assert!(self.size.start < self.size.end, "cannot sample empty range");
        let span = self.size.end - self.size.start;
        let len = if rng.next_u64() & 3 == 0 {
            self.size.start
        } else {
            self.size.start + (rng.next_u64() as usize) % span
        };
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_in_bounds_and_hit_endpoints() {
        let mut rng = TestRng::new(3);
        let strat = 5u64..25;
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..500 {
            let v = strat.generate(&mut rng);
            assert!((5..25).contains(&v));
            saw_lo |= v == 5;
            saw_hi |= v == 24;
        }
        assert!(saw_lo && saw_hi, "endpoint bias must reach both ends");
    }

    #[test]
    fn float_range_can_repeat_its_minimum() {
        let mut rng = TestRng::new(9);
        let strat = vec(0.1f64..20.0, 5..12);
        let mut dup_min = false;
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            let at_min = v.iter().filter(|&&x| x == 0.1).count();
            dup_min |= at_min >= 2;
        }
        assert!(dup_min, "must be able to generate duplicate range minima");
    }

    #[test]
    fn tuples_and_map_compose() {
        let mut rng = TestRng::new(11);
        let strat = (0u8..4, 1.0f64..2.0).prop_map(|(a, b)| a as f64 + b);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((1.0..6.0).contains(&v));
        }
    }
}
