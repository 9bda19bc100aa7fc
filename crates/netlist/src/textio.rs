//! Plain-text netlist serialization (`.paxnl`).
//!
//! A line-oriented format so generated or pruned circuits can be stored,
//! diffed and reloaded without a Verilog parser:
//!
//! ```text
//! paxnl v1 <name>
//! input <name> <width>
//! node <idx> in <port> <bit>
//! node <idx> <MNEMONIC> <in0> <in1> …
//! output <name> <net> <net> …
//! end
//! ```
//!
//! Loading re-validates every structural invariant, so a hand-edited or
//! corrupted file cannot produce an inconsistent [`Netlist`].

use crate::{Gate, GateKind, NetId, Netlist, Node, Port};

/// Serializes a netlist to the text format.
pub fn to_text(nl: &Netlist) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "paxnl v1 {}", nl.name());
    for p in nl.input_ports() {
        let _ = writeln!(out, "input {} {}", p.name, p.width());
    }
    for (id, node) in nl.iter() {
        match node {
            Node::Input { port, bit } => {
                let _ = writeln!(out, "node {} in {} {}", id.index(), port, bit);
            }
            Node::Gate(g) => {
                let _ = write!(out, "node {} {}", id.index(), g.kind.mnemonic());
                for i in g.inputs() {
                    let _ = write!(out, " {}", i.index());
                }
                out.push('\n');
            }
        }
    }
    for p in nl.output_ports() {
        let _ = write!(out, "output {}", p.name);
        for b in &p.bits {
            let _ = write!(out, " {}", b.index());
        }
        out.push('\n');
    }
    out.push_str("end\n");
    out
}

/// Widest input port the format accepts: [`Node::Input`] addresses a
/// bit with a `u16`.
const MAX_PORT_WIDTH: usize = 1 << 16;

/// Parses a netlist from the text format and validates it.
///
/// The text may come from outside the process, so declared port widths
/// are bounded before anything is allocated: no port is wider than
/// 65,536 bits, and the ports together declare no more bits than the
/// text has lines (each bit needs its own `node … in` line).
///
/// # Errors
///
/// Returns a descriptive message for syntactic problems, for oversized
/// or unbound input ports, and the
/// [`validate`](crate::validate::validate) error text for structural
/// ones.
pub fn from_text(text: &str) -> Result<Netlist, String> {
    let max_input_bits = text.lines().count();
    let mut input_bits = 0usize;
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty input")?;
    let name = header
        .strip_prefix("paxnl v1 ")
        .ok_or_else(|| format!("bad header `{header}`"))?
        .to_owned();

    let mut input_ports: Vec<Port> = Vec::new();
    let mut output_ports: Vec<Port> = Vec::new();
    let mut nodes: Vec<Node> = Vec::new();
    let mut ended = false;

    for (idx, line) in lines {
        let line_no = idx + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if ended {
            return Err(format!("line {line_no}: content after `end`"));
        }
        let mut tok = line.split_whitespace();
        match tok.next() {
            Some("input") => {
                let pname = tok.next().ok_or(format!("line {line_no}: missing port name"))?;
                let width: usize = tok
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or(format!("line {line_no}: bad width"))?;
                if width > MAX_PORT_WIDTH {
                    return Err(format!(
                        "line {line_no}: width {width} exceeds the {MAX_PORT_WIDTH}-bit limit"
                    ));
                }
                input_bits += width;
                if input_bits > max_input_bits {
                    return Err(format!(
                        "line {line_no}: {input_bits} declared input bits exceed the \
                         {max_input_bits} lines that could bind them"
                    ));
                }
                input_ports
                    .push(Port { name: pname.to_owned(), bits: vec![NetId::from_index(0); width] });
            }
            Some("node") => {
                let id: usize = tok
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or(format!("line {line_no}: bad node index"))?;
                if id != nodes.len() {
                    return Err(format!("line {line_no}: node {id} out of order"));
                }
                let kind_tok = tok.next().ok_or(format!("line {line_no}: missing node kind"))?;
                if kind_tok == "in" {
                    let port: u16 = tok
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or(format!("line {line_no}: bad port index"))?;
                    let bit: u16 = tok
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or(format!("line {line_no}: bad bit index"))?;
                    let p = input_ports
                        .get_mut(port as usize)
                        .ok_or(format!("line {line_no}: unknown port {port}"))?;
                    let slot = p
                        .bits
                        .get_mut(bit as usize)
                        .ok_or(format!("line {line_no}: bit {bit} out of range"))?;
                    *slot = NetId::from_index(id);
                    nodes.push(Node::Input { port, bit });
                } else {
                    let kind = GateKind::all()
                        .iter()
                        .copied()
                        .find(|k| k.mnemonic() == kind_tok)
                        .ok_or(format!("line {line_no}: unknown gate `{kind_tok}`"))?;
                    let ins: Vec<NetId> = tok
                        .map(|t| {
                            t.parse::<usize>()
                                .map(NetId::from_index)
                                .map_err(|_| format!("line {line_no}: bad input `{t}`"))
                        })
                        .collect::<Result<_, _>>()?;
                    if ins.len() != kind.arity() {
                        return Err(format!(
                            "line {line_no}: {kind_tok} expects {} inputs, got {}",
                            kind.arity(),
                            ins.len()
                        ));
                    }
                    if ins.iter().any(|i| i.index() >= id) {
                        return Err(format!("line {line_no}: forward reference"));
                    }
                    nodes.push(Node::Gate(Gate::new(kind, &ins)));
                }
            }
            Some("output") => {
                let pname = tok.next().ok_or(format!("line {line_no}: missing port name"))?;
                let bits: Vec<NetId> = tok
                    .map(|t| {
                        t.parse::<usize>()
                            .map(NetId::from_index)
                            .map_err(|_| format!("line {line_no}: bad net `{t}`"))
                    })
                    .collect::<Result<_, _>>()?;
                output_ports.push(Port { name: pname.to_owned(), bits });
            }
            Some("end") => ended = true,
            Some(other) => return Err(format!("line {line_no}: unknown statement `{other}`")),
            None => unreachable!("empty lines are skipped"),
        }
    }
    if !ended {
        return Err("missing `end`".into());
    }
    // Every declared bit must be bound by its own `node … in` line;
    // an unbound one would silently alias net 0.
    for (p, port) in input_ports.iter().enumerate() {
        for (b, net) in port.bits.iter().enumerate() {
            let bound = matches!(
                nodes.get(net.index()),
                Some(&Node::Input { port: q, bit }) if usize::from(q) == p && usize::from(bit) == b
            );
            if !bound {
                return Err(format!(
                    "input `{}` bit {b} is not bound by a `node … in` line",
                    port.name
                ));
            }
        }
    }
    let nl = Netlist { name, nodes, input_ports, output_ports };
    crate::validate::validate(&nl).map_err(|e| e.to_string())?;
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eval, NetlistBuilder};

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("t");
        let x = b.input_port("x", 3);
        let y = b.input_port("y", 2);
        let g1 = b.and2(x[0], y[1]);
        let g2 = b.mux(g1, x[1], x[2]);
        let k = b.const1();
        let g3 = b.xor2(g2, k);
        b.output_port("a", vec![g2, g3].into());
        b.output_port("b", vec![g1].into());
        b.finish()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let nl = sample();
        let text = to_text(&nl);
        let back = from_text(&text).unwrap();
        assert_eq!(back, nl);
        // Function identical too.
        for xv in 0..8 {
            for yv in 0..4 {
                assert_eq!(
                    eval::eval_ports(&nl, &[("x", xv), ("y", yv)]),
                    eval::eval_ports(&back, &[("x", xv), ("y", yv)])
                );
            }
        }
    }

    #[test]
    fn corrupted_inputs_are_rejected() {
        let nl = sample();
        let text = to_text(&nl);
        assert!(from_text("").is_err());
        assert!(from_text("garbage").is_err());
        assert!(from_text(&text.replace("end\n", "")).is_err());
        assert!(from_text(&text.replace("AND2", "FROB")).is_err());
        // Forward reference: point a gate input at a later node.
        let forward = text.replace("node 5 AND2 0 4", "node 5 AND2 0 6");
        assert!(from_text(&forward).is_err());
        // Arity violation.
        let arity = text.replace("node 5 AND2 0 4", "node 5 AND2 0");
        assert!(from_text(&arity).is_err());
    }

    #[test]
    fn overflowing_width_is_rejected() {
        // Used to panic with `capacity_overflow` in `vec![…; width]`.
        let err = from_text("paxnl v1 t\ninput a 4000000000000000000\nend\n").unwrap_err();
        assert!(err.contains("limit"), "{err}");
    }

    #[test]
    fn widths_beyond_the_text_are_rejected() {
        // Used to allocate ~4 GB of port bits for a one-line port.
        let err = from_text("paxnl v1 t\ninput a 1000000000\nend\n").unwrap_err();
        assert!(err.contains("limit"), "{err}");
        // Within the per-port limit, but more bits than lines to bind
        // them.
        let err = from_text("paxnl v1 t\ninput a 60000\nend\n").unwrap_err();
        assert!(err.contains("declared input bits"), "{err}");
    }

    #[test]
    fn unbound_input_bits_are_rejected() {
        // Bit 1 is declared but never bound: it used to alias net 0.
        let text = "paxnl v1 t\ninput a 2\nnode 0 in 0 0\noutput y 0\nend\n";
        let err = from_text(text).unwrap_err();
        assert!(err.contains("bit 1 is not bound"), "{err}");
        let bound = "paxnl v1 t\ninput a 2\nnode 0 in 0 0\nnode 1 in 0 1\noutput y 0 1\nend\n";
        assert!(from_text(bound).is_ok());
    }

    #[test]
    fn out_of_order_nodes_rejected() {
        let bad = "paxnl v1 t\ninput x 1\nnode 1 in 0 0\nend\n";
        assert!(from_text(bad).unwrap_err().contains("out of order"));
    }
}
