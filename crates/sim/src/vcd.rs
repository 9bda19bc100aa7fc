//! VCD (Value Change Dump) export of simulation traces.
//!
//! Debugging a bespoke circuit sometimes needs waveforms, not
//! statistics; this module replays a stimulus through the simulator's
//! scalar semantics and emits a standard VCD file that GTKWave (or any
//! EDA waveform viewer) opens. Port bits become VCD wires named
//! `port[i]`; the timescale is one clock cycle per time unit.

use std::fmt::Write as _;

use pax_netlist::{Netlist, Node};

use crate::{SimError, Stimulus};

/// Renders the VCD of all *port* signals over the stimulus.
///
/// # Errors
///
/// Returns [`SimError`] if the stimulus is empty, its ports disagree on
/// sample counts, or it misses one of the netlist's input ports.
pub fn to_vcd(nl: &Netlist, stim: &Stimulus) -> Result<String, SimError> {
    let n = stim.try_n_samples()?;
    if n == 0 {
        return Err(SimError::EmptyStimulus);
    }
    let inputs: Vec<&[u64]> = nl
        .input_ports()
        .iter()
        .map(|p| {
            stim.samples(&p.name).ok_or_else(|| SimError::MissingPort { port: p.name.clone() })
        })
        .collect::<Result<_, _>>()?;
    let input_bit = |port: u16, bit: u16, s: usize| inputs[usize::from(port)][s] >> bit & 1 == 1;

    // Collect the traced nets: all input and output port bits.
    let mut traced: Vec<(String, pax_netlist::NetId)> = Vec::new();
    for p in nl.input_ports().iter().chain(nl.output_ports()) {
        for (bit, &net) in p.bits.iter().enumerate() {
            traced.push((format!("{}[{}]", p.name, bit), net));
        }
    }

    let mut out = String::new();
    out.push_str("$date pax-sim $end\n");
    out.push_str("$timescale 1 ms $end\n");
    let _ = writeln!(out, "$scope module {} $end", nl.name());
    for (i, (name, _)) in traced.iter().enumerate() {
        let _ = writeln!(out, "$var wire 1 {} {} $end", ident(i), name);
    }
    out.push_str("$upscope $end\n$enddefinitions $end\n");

    // Scalar replay: netlists are small enough that waveform dumping
    // need not be bit-parallel.
    let mut prev: Vec<Option<bool>> = vec![None; traced.len()];
    let mut vals = vec![false; nl.len()];
    for s in 0..n {
        for (id, node) in nl.iter() {
            vals[id.index()] = match node {
                Node::Input { port, bit } => input_bit(*port, *bit, s),
                Node::Gate(g) => {
                    let ins: Vec<bool> = g.inputs().iter().map(|i| vals[i.index()]).collect();
                    g.kind.eval_bool(&ins)
                }
            };
        }
        let mut changes = String::new();
        for (i, (_, net)) in traced.iter().enumerate() {
            let v = vals[net.index()];
            if prev[i] != Some(v) {
                let _ = writeln!(changes, "{}{}", u8::from(v), ident(i));
                prev[i] = Some(v);
            }
        }
        if !changes.is_empty() {
            let _ = writeln!(out, "#{s}");
            out.push_str(&changes);
        }
    }
    let _ = writeln!(out, "#{n}");
    Ok(out)
}

/// Compact VCD identifier for signal `i` (printable ASCII, base-94).
fn ident(mut i: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((33 + (i % 94)) as u8 as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_netlist::NetlistBuilder;

    fn xor_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("w");
        let x = b.input_port("x", 2);
        let g = b.xor2(x[0], x[1]);
        b.output_port("y", vec![g].into());
        b.finish()
    }

    #[test]
    fn vcd_structure_and_transitions() {
        let nl = xor_netlist();
        let mut stim = Stimulus::new();
        stim.port("x", vec![0b00, 0b01, 0b01, 0b10, 0b11]);
        let vcd = to_vcd(&nl, &stim).unwrap();
        assert!(vcd.contains("$enddefinitions"));
        assert!(vcd.contains("$var wire 1 ! x[0] $end"));
        assert!(vcd.contains("$scope module w"));
        // y = 0,1,1,1,0: exactly two transitions after the initial dump.
        let y_id = {
            let line = vcd.lines().find(|l| l.contains("y[0]")).expect("y[0] declared");
            line.split_whitespace().nth(3).unwrap().to_string()
        };
        let y_changes =
            vcd.lines().filter(|l| *l == format!("0{y_id}") || *l == format!("1{y_id}")).count();
        assert_eq!(y_changes, 3, "initial value + two transitions");
        // Time markers appear in order.
        assert!(vcd.contains("#0\n"));
        assert!(vcd.ends_with("#5\n"));
    }

    #[test]
    fn quiet_samples_emit_no_marker() {
        let nl = xor_netlist();
        let mut stim = Stimulus::new();
        stim.port("x", vec![0b01; 10]); // constant after sample 0
        let vcd = to_vcd(&nl, &stim).unwrap();
        assert!(vcd.contains("#0\n"));
        assert!(!vcd.contains("#4\n"), "no change → no marker");
    }

    #[test]
    fn malformed_stimuli_are_typed_errors() {
        let nl = xor_netlist();
        assert_eq!(to_vcd(&nl, &Stimulus::new()), Err(SimError::EmptyStimulus));
        let mut other = Stimulus::new();
        other.port("z", vec![0, 1]);
        assert_eq!(to_vcd(&nl, &other), Err(SimError::MissingPort { port: "x".into() }));
    }

    #[test]
    fn identifiers_are_unique_for_many_signals() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            assert!(seen.insert(ident(i)), "duplicate ident for {i}");
        }
    }
}
