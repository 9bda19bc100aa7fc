use crate::NetId;

/// Errors surfaced by netlist validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate references a net with an index not smaller than its own —
    /// the topological-order invariant is broken (or the id is dangling).
    ForwardReference {
        /// The offending gate's output net.
        gate: NetId,
        /// The input reference that points forward.
        input: NetId,
    },
    /// A port bit references a net outside the node list.
    DanglingPortBit {
        /// Name of the port.
        port: String,
        /// The out-of-range net.
        net: NetId,
    },
    /// Two ports of the same direction share a name.
    DuplicatePort(String),
    /// An `Input` node's (port, bit) coordinates do not match any
    /// declared input port bit.
    InputPortMismatch {
        /// The input node's net.
        net: NetId,
    },
    /// Replaying the netlist through the fold rules without a
    /// substitution does not reproduce it node for node: it is not the
    /// output of an optimization pass, so a cone fold cannot index it.
    NotCanonical {
        /// The first node the replay does not reproduce.
        net: NetId,
    },
}

impl std::fmt::Display for NetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetlistError::ForwardReference { gate, input } => {
                write!(f, "gate {gate} references non-earlier net {input}")
            }
            NetlistError::DanglingPortBit { port, net } => {
                write!(f, "port `{port}` references out-of-range net {net}")
            }
            NetlistError::DuplicatePort(name) => write!(f, "duplicate port name `{name}`"),
            NetlistError::InputPortMismatch { net } => {
                write!(f, "input node {net} does not match its declared port bit")
            }
            NetlistError::NotCanonical { net } => {
                write!(f, "replaying the netlist does not reproduce node {net}; optimize it first")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_ids() {
        let e = NetlistError::ForwardReference {
            gate: NetId::from_index(3),
            input: NetId::from_index(7),
        };
        assert!(e.to_string().contains("n3"));
        assert!(e.to_string().contains("n7"));
    }
}
