//! Black-Scholes European option pricing (CUDA Examples baseline).
//!
//! Element-wise: each input element is a spot price; the strike, expiry,
//! rate, and volatility are kernel parameters (the CUDA sample draws them
//! from fixed ranges). The output is the call option price.

use shmt_tensor::tile::Tile;
use shmt_tensor::Tensor;

use crate::{Kernel, KernelShape};

/// Black-Scholes call pricing over a tensor of spot prices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blackscholes {
    /// Strike price as a multiple of the spot price.
    pub strike_ratio: f32,
    /// Risk-free rate.
    pub rate: f32,
    /// Volatility.
    pub volatility: f32,
    /// Time to expiry in years.
    pub expiry: f32,
}

impl Default for Blackscholes {
    fn default() -> Self {
        Blackscholes {
            strike_ratio: 1.05,
            rate: 0.02,
            volatility: 0.30,
            expiry: 1.0,
        }
    }
}

/// Number of memo slots in a [`Pricer`]: a power of two, so the slot is
/// the low bits of the key.
const MEMO_SLOTS: usize = 8;

/// Prices spots one after another with the spot-independent
/// subexpressions hoisted and the transcendental legs memoized.
///
/// The strike is `k = s · strike_ratio`, so `d1`, `d2`, `cnd(d1)` and
/// `cnd(d2)` depend on the spot only through `q = s / k`: equal `q` bits
/// give equal legs, bit for bit. Only `s · cnd(d1) − k · discount ·
/// cnd(d2)` needs the spot itself. `fl(s / fl(s · r))` takes a handful of
/// bit patterns for any ratio `r` (three over a 1024² dataset), so the
/// `ln` and both `exp`s run a handful of times per tile instead of once
/// per element. A miss recomputes, so no input changes an output bit;
/// adversarial spots only cost speed.
struct Pricer {
    strike_ratio: f32,
    drift: f32,
    vol_sqrt_t: f32,
    discount: f32,
    /// Direct-mapped on the low bits of `q.to_bits()`: the `q` bits last
    /// seen in the slot and their `(cnd(d1), cnd(d2))`. `None` until
    /// filled — every bit pattern is a valid key, NaNs included.
    memo: [Option<(u32, f32, f32)>; MEMO_SLOTS],
}

impl Pricer {
    fn price(&mut self, s: f32) -> f32 {
        let s = s.max(1e-6);
        let k = s * self.strike_ratio;
        // `q` is not folded to the constant `1 / strike_ratio`, which
        // would change the float result; its bits key the memo instead.
        let q = s / k;
        let key = q.to_bits();
        let slot = &mut self.memo[key as usize % MEMO_SLOTS];
        let (c1, c2) = match *slot {
            Some((seen, c1, c2)) if seen == key => (c1, c2),
            _ => {
                let d1 = (q.ln() + self.drift) / self.vol_sqrt_t;
                let d2 = d1 - self.vol_sqrt_t;
                let (c1, c2) = (cnd(d1), cnd(d2));
                *slot = Some((key, c1, c2));
                (c1, c2)
            }
        };
        s * c1 - k * self.discount * c2
    }
}

impl Blackscholes {
    /// Prices a single call option at spot `s`.
    pub fn price(&self, s: f32) -> f32 {
        self.pricer().price(s)
    }

    /// A fresh [`Pricer`]. Each hoisted field is built by the expression
    /// the per-element formula uses, so hoisting changes no output bit.
    fn pricer(&self) -> Pricer {
        let sqrt_t = self.expiry.sqrt();
        Pricer {
            strike_ratio: self.strike_ratio,
            drift: (self.rate + 0.5 * self.volatility * self.volatility) * self.expiry,
            vol_sqrt_t: self.volatility * sqrt_t,
            discount: (-self.rate * self.expiry).exp(),
            memo: [None; MEMO_SLOTS],
        }
    }
}

/// Cumulative standard normal distribution via the Abramowitz–Stegun
/// polynomial approximation used by the CUDA sample.
pub(crate) fn cnd(d: f32) -> f32 {
    const A1: f32 = 0.319_381_53;
    const A2: f32 = -0.356_563_78;
    const A3: f32 = 1.781_477_9;
    const A4: f32 = -1.821_255_9;
    const A5: f32 = 1.330_274_5;
    const RSQRT2PI: f32 = 0.398_942_3;
    let k = 1.0 / (1.0 + 0.231_641_9 * d.abs());
    let poly = k * (A1 + k * (A2 + k * (A3 + k * (A4 + k * A5))));
    let cnd = RSQRT2PI * (-0.5 * d * d).exp() * poly;
    if d > 0.0 {
        1.0 - cnd
    } else {
        cnd
    }
}

impl Kernel for Blackscholes {
    fn name(&self) -> &'static str {
        "Blackscholes"
    }

    fn shape(&self) -> KernelShape {
        KernelShape::elementwise()
    }

    fn run_exact(&self, inputs: &[&Tensor], tile: Tile, out: &mut Tensor) {
        let input = inputs[0];
        let mut pricer = self.pricer();
        for r in tile.row0..tile.row0 + tile.rows {
            let src = &input.row(r)[tile.col0..tile.col0 + tile.cols];
            let dst = &mut out.row_mut(r)[tile.col0..tile.col0 + tile.cols];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = pricer.price(s);
            }
        }
    }

    fn npu_fidelity(&self) -> f32 {
        // The NN approximation of the strongly nonlinear pricing formula is
        // noticeably worse than raw int8 (paper Fig 7: 42% MAPE TPU-only).
        6.0
    }

    fn work_per_element(&self) -> f64 {
        45.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnd_is_a_cdf() {
        assert!((cnd(0.0) - 0.5).abs() < 1e-3);
        assert!(cnd(5.0) > 0.999);
        assert!(cnd(-5.0) < 0.001);
        assert!((cnd(1.0) + cnd(-1.0) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn call_price_is_positive_and_below_spot() {
        let k = Blackscholes::default();
        for s in [1.0, 30.0, 100.0, 500.0] {
            let p = k.price(s);
            assert!(p > 0.0, "price({s}) = {p}");
            assert!(p < s);
        }
    }

    #[test]
    fn price_is_monotone_in_spot() {
        let k = Blackscholes::default();
        // With strike proportional to spot, the price scales with the spot.
        assert!(k.price(200.0) > k.price(100.0));
    }

    #[test]
    fn tile_execution_matches_scalar() {
        let k = Blackscholes::default();
        let input = Tensor::from_fn(4, 8, |r, c| 20.0 + (r * 8 + c) as f32);
        let mut out = Tensor::zeros(4, 8);
        let tile = Tile {
            index: 0,
            row0: 1,
            col0: 2,
            rows: 2,
            cols: 4,
        };
        k.run_exact(&[&input], tile, &mut out);
        assert_eq!(out[(1, 2)], k.price(input[(1, 2)]));
        assert_eq!(out[(2, 5)], k.price(input[(2, 5)]));
        assert_eq!(out[(0, 0)], 0.0, "outside the tile is untouched");
    }
}
