//! Printed-electronics power analysis.
//!
//! EGT logic draws a continuous cross-current, so **static power
//! dominates** at the relaxed multi-hertz clocks printed circuits run at;
//! dynamic power (switching energy × toggle density × clock frequency)
//! contributes a small correction, and a constant I/O floor models pads
//! and sensing harness. This mirrors the first-order model a PrimeTime
//! run with annotated switching activity evaluates, calibrated to the
//! magnitudes of the paper's Table I.

use egt_pdk::{Library, PdkError, TechParams};
use pax_netlist::{Netlist, Node};

use crate::Activity;

/// Decomposed power figures for one circuit at one operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// Static (leakage/cross-current) power of all cells, in mW.
    pub static_mw: f64,
    /// Dynamic switching power, in mW.
    pub dynamic_mw: f64,
    /// Constant I/O + harness floor, in mW.
    pub io_floor_mw: f64,
}

impl PowerReport {
    /// Total circuit power in mW.
    pub fn total_mw(&self) -> f64 {
        self.static_mw + self.dynamic_mw + self.io_floor_mw
    }
}

impl std::fmt::Display for PowerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2} mW (static {:.2} + dynamic {:.3} + I/O {:.2})",
            self.total_mw(),
            self.static_mw,
            self.dynamic_mw,
            self.io_floor_mw
        )
    }
}

/// Computes the power of `nl` given observed switching `activity`.
///
/// # Errors
///
/// Returns [`PdkError::UnknownCell`] if the library lacks a used cell.
///
/// # Panics
///
/// Panics if `activity` does not cover every net of `nl` (it must come
/// from a simulation of this very netlist).
///
/// # Examples
///
/// ```
/// use pax_netlist::NetlistBuilder;
/// use pax_sim::{power::power, try_simulate, Stimulus};
///
/// let mut b = NetlistBuilder::new("p");
/// let x = b.input_port("x", 2);
/// let g = b.and2(x[0], x[1]);
/// b.output_port("y", vec![g].into());
/// let nl = b.finish();
/// let mut stim = Stimulus::new();
/// stim.port("x", vec![0, 1, 2, 3]);
/// let res = try_simulate(&nl, &stim).expect("the stimulus drives port x");
/// let lib = egt_pdk::egt_library();
/// let tech = egt_pdk::TechParams::egt();
/// let report = power(&nl, &lib, &tech, &res.activity)?;
/// assert!(report.total_mw() > tech.io_floor_mw);
/// # Ok::<(), egt_pdk::PdkError>(())
/// ```
pub fn power(
    nl: &Netlist,
    lib: &Library,
    tech: &TechParams,
    activity: &Activity,
) -> Result<PowerReport, PdkError> {
    assert_eq!(activity.len(), nl.len(), "activity does not match netlist");
    let f_hz = tech.clock_hz();
    let mut static_uw = 0.0;
    let mut dynamic_uw = 0.0;
    for (id, node) in nl.iter() {
        let Node::Gate(g) = node else { continue };
        if g.kind.is_free() {
            continue;
        }
        let cell = lib.require(g.kind.mnemonic())?;
        static_uw += cell.static_uw;
        // nJ/toggle × toggles/cycle × cycles/s = nW → µW.
        dynamic_uw += cell.sw_energy_nj * activity.toggle_rate(id) * f_hz * 1e-3;
    }
    Ok(PowerReport {
        static_mw: static_uw * 1e-3,
        dynamic_mw: dynamic_uw * 1e-3,
        io_floor_mw: tech.io_floor_mw,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_simulate, Stimulus};
    use pax_netlist::NetlistBuilder;

    fn two_gate_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("t");
        let x = b.input_port("x", 2);
        let g1 = b.xor2(x[0], x[1]);
        let g2 = b.nand2(g1, x[0]);
        b.output_port("y", vec![g2].into());
        b.finish()
    }

    #[test]
    fn static_power_is_cell_sum() {
        let nl = two_gate_netlist();
        let lib = egt_pdk::egt_library();
        let tech = egt_pdk::TechParams::egt();
        let mut stim = Stimulus::new();
        stim.port("x", vec![0, 0, 0, 0]); // no switching at all
        let res = try_simulate(&nl, &stim).unwrap();
        let report = power(&nl, &lib, &tech, &res.activity).unwrap();
        let expect =
            (lib.cell("XOR2").unwrap().static_uw + lib.cell("NAND2").unwrap().static_uw) * 1e-3;
        assert!((report.static_mw - expect).abs() < 1e-12);
        assert_eq!(report.dynamic_mw, 0.0);
        assert!((report.total_mw() - expect - tech.io_floor_mw).abs() < 1e-12);
    }

    #[test]
    fn dynamic_power_scales_with_activity() {
        let nl = two_gate_netlist();
        let lib = egt_pdk::egt_library();
        let tech = egt_pdk::TechParams::egt();
        let idle = {
            let mut stim = Stimulus::new();
            stim.port("x", vec![0; 64]);
            try_simulate(&nl, &stim).unwrap()
        };
        let busy = {
            let mut stim = Stimulus::new();
            stim.port("x", (0..64).map(|i| i % 4).collect());
            try_simulate(&nl, &stim).unwrap()
        };
        let p_idle = power(&nl, &lib, &tech, &idle.activity).unwrap();
        let p_busy = power(&nl, &lib, &tech, &busy.activity).unwrap();
        assert!(p_busy.dynamic_mw > p_idle.dynamic_mw);
        assert_eq!(p_busy.static_mw, p_idle.static_mw);
        // EGT is static-dominated: even a busy circuit's dynamic power is
        // a small fraction of static at 5 Hz.
        assert!(p_busy.dynamic_mw < 0.05 * p_busy.static_mw);
    }

    #[test]
    fn display_reports_components() {
        let r = PowerReport { static_mw: 1.0, dynamic_mw: 0.5, io_floor_mw: 3.2 };
        let text = r.to_string();
        assert!(text.contains("4.70 mW"));
        assert!(text.contains("static"));
    }
}
