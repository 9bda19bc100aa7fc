//! Canonical signed-digit (non-adjacent form) recoding of constants.
//!
//! CSD expresses an integer with digits in `{-1, 0, +1}` such that no two
//! adjacent digits are non-zero; it is the minimal-signed-digit form, so
//! the number of add/subtract terms of a constant multiplier equals the
//! number of non-zero digits. Synthesis tools recode hardwired constants
//! the same way, which is what gives bespoke multipliers their strongly
//! coefficient-dependent area (paper Fig. 1).

/// One signed digit of a CSD expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsdDigit {
    /// Bit position (weight `2^pos`).
    pub pos: u32,
    /// `+1` or `-1`.
    pub sign: i8,
}

/// Recodes `w` into canonical signed-digit (non-adjacent) form.
///
/// Digits are returned in increasing position order. The empty vector
/// encodes zero.
///
/// # Examples
///
/// ```
/// use pax_synth::csd::{to_csd, CsdDigit};
///
/// // 7 = 8 - 1: two digits instead of binary's three.
/// assert_eq!(
///     to_csd(7),
///     vec![CsdDigit { pos: 0, sign: -1 }, CsdDigit { pos: 3, sign: 1 }]
/// );
/// assert_eq!(to_csd(0), vec![]);
/// assert_eq!(to_csd(-2), vec![CsdDigit { pos: 1, sign: -1 }]);
/// ```
pub fn to_csd(w: i64) -> Vec<CsdDigit> {
    let mut digits = Vec::new();
    let mut v = w as i128; // avoid overflow at i64::MIN
    let mut pos = 0u32;
    while v != 0 {
        if v & 1 != 0 {
            // Non-adjacent form: choose the digit that makes the
            // remainder divisible by 4, pushing runs of ones into a
            // single +1/−1 pair.
            let d: i128 = 2 - (v & 3); // v mod 4 == 1 -> +1, == 3 -> -1
            digits.push(CsdDigit { pos, sign: d as i8 });
            v -= d;
        }
        v >>= 1;
        pos += 1;
    }
    digits
}

/// Reconstructs the integer value of a CSD digit vector.
pub fn from_csd(digits: &[CsdDigit]) -> i64 {
    digits.iter().map(|d| i64::from(d.sign) * (1i64 << d.pos)).sum()
}

/// Number of non-zero digits — the number of add/subtract terms a
/// constant multiplier needs.
pub fn csd_cost(w: i64) -> usize {
    to_csd(w).len()
}

/// Plain binary signed expansion (one `+1` digit per set magnitude bit,
/// negative numbers as the negated positive expansion). Used by the CSD
/// ablation (`paper ablations`) to show how much the recoding saves.
pub fn to_binary_digits(w: i64) -> Vec<CsdDigit> {
    let sign: i8 = if w < 0 { -1 } else { 1 };
    let mag = (w as i128).unsigned_abs();
    (0..127).filter(|i| mag >> i & 1 == 1).map(|pos| CsdDigit { pos, sign }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_9bit_values() {
        for w in -256..=256i64 {
            assert_eq!(from_csd(&to_csd(w)), w, "w={w}");
            assert_eq!(from_csd(&to_binary_digits(w)), w, "binary w={w}");
        }
    }

    #[test]
    fn non_adjacent_property() {
        for w in -1024..=1024i64 {
            let d = to_csd(w);
            for pair in d.windows(2) {
                assert!(pair[1].pos > pair[0].pos + 1, "adjacent digits in CSD of {w}: {d:?}");
            }
        }
    }

    #[test]
    fn csd_never_longer_than_binary() {
        for w in -1024..=1024i64 {
            assert!(
                csd_cost(w) <= to_binary_digits(w).len().max(1),
                "CSD worse than binary for {w}"
            );
        }
    }

    #[test]
    fn powers_of_two_cost_one() {
        for k in 0..32 {
            assert_eq!(csd_cost(1 << k), 1);
            assert_eq!(csd_cost(-(1 << k)), 1);
        }
        assert_eq!(csd_cost(0), 0);
    }

    #[test]
    fn runs_of_ones_collapse() {
        // 0b0111_1111 = 127 = 128 - 1 -> 2 digits.
        assert_eq!(csd_cost(127), 2);
        // binary needs 7.
        assert_eq!(to_binary_digits(127).len(), 7);
    }
}
