//! Bespoke constant-coefficient multipliers.
//!
//! In a bespoke printed classifier the coefficient `w` of every product
//! `x·w` is hardwired, so the multiplier reduces to the CSD terms of `w`:
//! one shifted copy of `x` added or subtracted per non-zero digit. The
//! resulting area depends strongly on the *value* of `w` — zero for
//! `w ∈ {0, ±2^k}` up to a full adder tree for dense coefficients — which
//! is the effect the paper's Fig. 1 plots and its coefficient
//! approximation exploits.

use pax_netlist::{Bus, NetlistBuilder};

use crate::bits::{product_width, shl, zero_extend};
use crate::csa::{sum_terms, Term};
use crate::csd::{to_binary_digits, to_csd, CsdDigit};

/// Builds the bespoke multiplier `x · w` for an **unsigned** input bus
/// `x` and a hardwired signed constant `w`, producing a signed
/// `out_width`-bit product.
///
/// `out_width` must be large enough for the exact product (use
/// [`product_width`]); the result is then exact.
///
/// # Panics
///
/// Panics if `x` is empty or `out_width` cannot hold the product range.
///
/// # Examples
///
/// ```
/// use pax_netlist::{eval, NetlistBuilder};
/// use pax_synth::{bits, constmul};
///
/// let mut b = NetlistBuilder::new("bm");
/// let x = b.input_port("x", 4);
/// let w = -37;
/// let width = bits::product_width(4, w);
/// let p = constmul::bespoke_mul(&mut b, &x, w, width);
/// b.output_port("p", p);
/// let nl = b.finish();
/// let out = eval::eval_ports(&nl, &[("x", 13)]);
/// assert_eq!(eval::to_signed(out["p"], width), -481);
/// ```
pub fn bespoke_mul(b: &mut NetlistBuilder, x: &Bus, w: i64, out_width: usize) -> Bus {
    bespoke_mul_digits(b, x, w, out_width, &to_csd(w))
}

/// Like [`bespoke_mul`] but with plain binary (non-CSD) recoding; exists
/// for the ablation (`paper ablations`) quantifying what CSD recoding
/// saves.
pub fn bespoke_mul_binary(b: &mut NetlistBuilder, x: &Bus, w: i64, out_width: usize) -> Bus {
    bespoke_mul_digits(b, x, w, out_width, &to_binary_digits(w))
}

fn bespoke_mul_digits(
    b: &mut NetlistBuilder,
    x: &Bus,
    w: i64,
    out_width: usize,
    digits: &[CsdDigit],
) -> Bus {
    assert!(!x.is_empty(), "bespoke_mul on empty input bus");
    assert!(
        out_width >= product_width(x.width(), w),
        "out_width {out_width} too narrow for {}-bit × {w}",
        x.width()
    );
    if digits.is_empty() {
        return b.constant_bus(0, out_width);
    }
    let terms: Vec<Term> = digits
        .iter()
        .map(|d| {
            let shifted = shl(b, x, d.pos as usize);
            let t = Term::unsigned(shifted);
            if d.sign < 0 {
                t.negated()
            } else {
                t
            }
        })
        .collect();
    // A single positive digit is pure wiring: shift + zero-extension.
    if terms.len() == 1 && !terms[0].negate {
        return zero_extend(b, &terms[0].bus.clone(), out_width);
    }
    sum_terms(b, &terms, 0, out_width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_netlist::eval;

    fn check_mul(x_width: usize, w: i64, binary: bool) {
        let mut b = NetlistBuilder::new("bm");
        let x = b.input_port("x", x_width);
        let width = product_width(x_width, w);
        let p = if binary {
            bespoke_mul_binary(&mut b, &x, w, width)
        } else {
            bespoke_mul(&mut b, &x, w, width)
        };
        b.output_port("p", p);
        let nl = b.finish();
        pax_netlist::validate::assert_valid(&nl);
        for xv in 0..(1u64 << x_width) {
            let got = eval::eval_ports(&nl, &[("x", xv)])["p"];
            assert_eq!(eval::to_signed(got, width), w * xv as i64, "x={xv} w={w} binary={binary}");
        }
    }

    #[test]
    fn exhaustive_4bit_input_all_8bit_coefficients() {
        for w in -128..=127 {
            check_mul(4, w, false);
        }
    }

    #[test]
    fn binary_recoding_exhaustive_4bit_sample() {
        for w in [-128, -127, -96, -3, -1, 0, 1, 2, 3, 77, 127] {
            check_mul(4, w, true);
        }
    }

    #[test]
    fn sample_8bit_input_coefficients() {
        for w in [-128, -101, -64, -17, 0, 1, 5, 63, 64, 99, 127] {
            check_mul(8, w, false);
        }
    }

    #[test]
    fn powers_of_two_cost_zero_gates() {
        for w in [1i64, 2, 4, 8, 16, 32, 64] {
            let mut b = NetlistBuilder::new("p2");
            let x = b.input_port("x", 4);
            let width = product_width(4, w);
            let before_gates = b.len();
            let p = bespoke_mul(&mut b, &x, w, width);
            // Only the const0 node for zero-extension may appear.
            assert!(b.len() <= before_gates + 1, "w={w} added logic");
            b.output_port("p", p);
        }
    }

    #[test]
    fn zero_coefficient_is_constant_zero() {
        let mut b = NetlistBuilder::new("z");
        let x = b.input_port("x", 4);
        let p = bespoke_mul(&mut b, &x, 0, 1);
        b.output_port("p", p);
        let nl = b.finish();
        assert_eq!(nl.gate_count(), 0);
        for xv in 0..16 {
            assert_eq!(eval::eval_ports(&nl, &[("x", xv)])["p"], 0);
        }
    }

    #[test]
    #[should_panic(expected = "too narrow")]
    fn narrow_output_rejected() {
        let mut b = NetlistBuilder::new("bad");
        let x = b.input_port("x", 4);
        let _ = bespoke_mul(&mut b, &x, 100, 4);
    }
}
