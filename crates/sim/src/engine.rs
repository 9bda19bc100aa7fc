use std::collections::BTreeMap;

use pax_netlist::{Netlist, Node};

use crate::word::Word;
use crate::{Activity, SimError, Stimulus};

/// Functional outputs of a simulation run: per-port bit planes, 64
/// samples per word.
///
/// This is what [`CompiledNetlist::run`](crate::CompiledNetlist::run)
/// returns when activity accounting is disabled; [`SimResult`] wraps the
/// same capture together with an [`Activity`] record.
#[derive(Debug, Clone)]
pub struct SimOutputs {
    n_samples: usize,
    /// Output-port bit planes: port → per-bit word vectors.
    port_words: BTreeMap<String, Vec<Vec<u64>>>,
}

impl SimOutputs {
    pub(crate) fn new(n_samples: usize, port_words: BTreeMap<String, Vec<Vec<u64>>>) -> Self {
        Self { n_samples, port_words }
    }

    /// Number of simulated samples.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// The value of output port `name` at sample `s`.
    ///
    /// # Panics
    ///
    /// Panics on unknown port or out-of-range sample.
    pub fn port_sample(&self, name: &str, s: usize) -> u64 {
        assert!(s < self.n_samples, "sample {s} out of range");
        let planes =
            self.port_words.get(name).unwrap_or_else(|| panic!("unknown output port `{name}`"));
        let (w, bit) = (s / 64, s % 64);
        planes.iter().enumerate().fold(0u64, |acc, (i, plane)| acc | ((plane[w] >> bit & 1) << i))
    }

    /// All values of output port `name`, one per sample.
    ///
    /// # Panics
    ///
    /// Panics on unknown port.
    pub fn port_values(&self, name: &str) -> Vec<u64> {
        (0..self.n_samples).map(|s| self.port_sample(name, s)).collect()
    }

    /// Width in bits of output port `name`, if captured.
    pub fn port_width(&self, name: &str) -> Option<usize> {
        self.port_words.get(name).map(Vec::len)
    }

    /// Names of the captured output ports.
    pub fn ports(&self) -> impl Iterator<Item = &str> {
        self.port_words.keys().map(String::as_str)
    }
}

/// Result of a bit-parallel simulation: functional output values plus
/// per-net activity statistics.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Number of simulated samples.
    pub n_samples: usize,
    /// Per-net signal statistics (ones, toggles).
    pub activity: Activity,
    outputs: SimOutputs,
}

impl SimResult {
    /// `n_samples` is derived from `outputs` (and must equal the
    /// activity record's — both come from the same packed stimulus).
    pub(crate) fn new(activity: Activity, outputs: SimOutputs) -> Self {
        debug_assert_eq!(activity.n_samples(), outputs.n_samples());
        Self { n_samples: outputs.n_samples(), activity, outputs }
    }

    /// The functional outputs alone.
    pub fn outputs(&self) -> &SimOutputs {
        &self.outputs
    }

    /// The value of output port `name` at sample `s`.
    ///
    /// # Panics
    ///
    /// Panics on unknown port or out-of-range sample.
    pub fn port_sample(&self, name: &str, s: usize) -> u64 {
        self.outputs.port_sample(name, s)
    }

    /// All values of output port `name`, one per sample.
    ///
    /// # Panics
    ///
    /// Panics on unknown port.
    pub fn port_values(&self, name: &str) -> Vec<u64> {
        self.outputs.port_values(name)
    }

    /// Width in bits of output port `name`, if captured.
    pub fn port_width(&self, name: &str) -> Option<usize> {
        self.outputs.port_width(name)
    }

    /// Names of the captured output ports.
    pub fn ports(&self) -> impl Iterator<Item = &str> {
        self.outputs.ports()
    }
}

/// Input planes packed for bit-parallel evaluation: one `Vec<W>` plane
/// per (input port, bit), in `input_ports()` declaration order. Generic
/// over the lane width — the interpreter packs `u64`, the compiled tape
/// packs whichever [`Word`] it executes.
#[derive(Debug)]
pub(crate) struct PackedInputs<W: Word = u64> {
    pub n_samples: usize,
    /// Number of `W`-sized words (`ceil(n_samples / W::LANES)`).
    pub n_words: usize,
    /// One plane per input-port bit, ports in declaration order, bits
    /// LSB-first within each port.
    pub planes: Vec<Vec<W>>,
    /// Node index of the input node each plane drives.
    pub nodes: Vec<usize>,
}

/// Packs the stimulus into per-bit sample planes, validating coverage,
/// sample counts and port widths. `ports` are the input ports the
/// stimulus must drive (both evaluation paths share this packer).
pub(crate) fn pack_inputs<W: Word>(
    ports: &[pax_netlist::Port],
    stim: &Stimulus,
) -> Result<PackedInputs<W>, SimError> {
    let n_samples = stim.try_n_samples()?;
    if n_samples == 0 {
        return Err(SimError::EmptyStimulus);
    }
    let n_words = n_samples.div_ceil(W::LANES);
    let mut planes: Vec<Vec<W>> = Vec::new();
    let mut nodes: Vec<usize> = Vec::new();
    for p in ports {
        let samples =
            stim.samples(&p.name).ok_or_else(|| SimError::MissingPort { port: p.name.clone() })?;
        debug_assert_eq!(samples.len(), n_samples);
        if let Some(&value) = samples.iter().find(|&&v| p.width() < 64 && v >> p.width() != 0) {
            return Err(SimError::OversizedSample {
                port: p.name.clone(),
                value,
                width: p.width(),
            });
        }
        for (bit, net) in p.bits.iter().enumerate() {
            // Branchless bit transpose, one 64-lane limb at a time:
            // per-sample shift/or only, no per-sample division or
            // conditional — packing sits on `run`'s per-call path.
            let mut plane = vec![W::zero(); n_words];
            let mut limbs = [0u64; 4];
            debug_assert!(W::LIMBS <= limbs.len());
            for (w, chunk) in samples.chunks(W::LANES).enumerate() {
                for (l, sub) in chunk.chunks(64).enumerate() {
                    let mut word = 0u64;
                    for (s, &v) in sub.iter().enumerate() {
                        word |= (v >> bit & 1) << s;
                    }
                    limbs[l] = word;
                }
                plane[w] = W::from_limbs(&limbs[..chunk.len().div_ceil(64)]);
            }
            nodes.push(net.index());
            planes.push(plane);
        }
    }
    Ok(PackedInputs { n_samples, n_words, planes, nodes })
}

/// Simulates `nl` on `stim`, 64 samples per pass.
///
/// Semantics match [`pax_netlist::eval::eval_ports`] exactly (the scalar
/// evaluator is the reference; a property test in this crate pins the
/// equivalence). This is the *interpreted* path: it dispatches on the
/// node kind for every gate of every word. For repeated evaluation of
/// one netlist, compile it once with
/// [`CompiledNetlist`](crate::CompiledNetlist) instead.
///
/// # Errors
///
/// Returns [`SimError`] when the stimulus is empty, misses an input
/// port, disagrees on sample counts or carries oversized samples.
pub fn try_simulate(nl: &Netlist, stim: &Stimulus) -> Result<SimResult, SimError> {
    let packed = pack_inputs::<u64>(nl.input_ports(), stim)?;
    let (n_samples, n_words) = (packed.n_samples, packed.n_words);

    // Plane index per input node.
    let mut node_plane: Vec<usize> = vec![usize::MAX; nl.len()];
    for (plane, &node) in packed.nodes.iter().enumerate() {
        node_plane[node] = plane;
    }

    let mut ones = vec![0u64; nl.len()];
    let mut toggles = vec![0u64; nl.len()];
    let mut prev_msb = vec![0u64; nl.len()]; // last sample bit of previous word

    // Output planes to capture.
    let mut port_words: BTreeMap<String, Vec<Vec<u64>>> = BTreeMap::new();
    for p in nl.output_ports() {
        let planes = vec![vec![0u64; n_words]; p.width()];
        port_words.insert(p.name.clone(), planes);
    }

    let mut vals = vec![0u64; nl.len()];
    for w in 0..n_words {
        let valid = (n_samples - w * 64).min(64);
        let mask = if valid == 64 { u64::MAX } else { (1u64 << valid) - 1 };
        for (id, node) in nl.iter() {
            let idx = id.index();
            let v = match node {
                Node::Input { .. } => packed.planes[node_plane[idx]][w],
                Node::Gate(g) => {
                    let ins = g.inputs();
                    let a = ins.first().map_or(0, |i| vals[i.index()]);
                    let b = ins.get(1).map_or(0, |i| vals[i.index()]);
                    let c = ins.get(2).map_or(0, |i| vals[i.index()]);
                    g.kind.eval_word(a, b, c)
                }
            };
            vals[idx] = v;
            ones[idx] += (v & mask).count_ones() as u64;
            // Transitions: sample i-1 -> i within the word, plus the
            // boundary from the previous word's last sample.
            let shifted = (v << 1) | prev_msb[idx];
            let mut diff = (v ^ shifted) & mask;
            if w == 0 {
                diff &= !1; // the very first sample has no predecessor
            }
            toggles[idx] += diff.count_ones() as u64;
            prev_msb[idx] = v >> (valid - 1) & 1;
        }
        for p in nl.output_ports() {
            let planes = port_words.get_mut(&p.name).expect("pre-inserted");
            for (bit, net) in p.bits.iter().enumerate() {
                planes[bit][w] = vals[net.index()] & mask;
            }
        }
    }

    Ok(SimResult::new(
        Activity::new(n_samples, ones, toggles),
        SimOutputs::new(n_samples, port_words),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_netlist::{eval, NetlistBuilder};

    fn adder_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("add");
        let x = b.input_port("x", 4);
        let y = b.input_port("y", 4);
        let (s, c) = pax_synth_test_adder(&mut b, &x, &y);
        let mut out = s;
        out.push_msb(c);
        b.output_port("s", out);
        b.finish()
    }

    /// Local ripple adder to avoid a circular dev-dependency on pax-synth.
    fn pax_synth_test_adder(
        b: &mut NetlistBuilder,
        x: &pax_netlist::Bus,
        y: &pax_netlist::Bus,
    ) -> (pax_netlist::Bus, pax_netlist::NetId) {
        let mut carry = b.const0();
        let mut sum = pax_netlist::Bus::new();
        for i in 0..x.width() {
            let t = b.xor2(x[i], y[i]);
            let s = b.xor2(t, carry);
            let n1 = b.nand2(x[i], y[i]);
            let n2 = b.nand2(t, carry);
            carry = b.nand2(n1, n2);
            sum.push_msb(s);
        }
        (sum, carry)
    }

    #[test]
    fn matches_scalar_reference_on_adder() {
        let nl = adder_netlist();
        let xs: Vec<u64> = (0..200).map(|i| (i * 7 + 3) % 16).collect();
        let ys: Vec<u64> = (0..200).map(|i| (i * 13 + 1) % 16).collect();
        let mut stim = Stimulus::new();
        stim.port("x", xs.clone()).port("y", ys.clone());
        let res = try_simulate(&nl, &stim).unwrap();
        for s in 0..200 {
            let reference = eval::eval_ports(&nl, &[("x", xs[s]), ("y", ys[s])]);
            assert_eq!(res.port_sample("s", s), reference["s"], "sample {s}");
        }
        assert_eq!(res.port_values("s").len(), 200);
        assert_eq!(res.port_width("s"), Some(5));
        assert_eq!(res.port_width("nope"), None);
    }

    #[test]
    fn activity_counts_constant_and_alternating_nets() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input_port("x", 1);
        let nx = b.not(x[0]);
        b.output_port("y", vec![nx].into());
        let nl = b.finish();
        // 130 samples: alternating 0/1 (crosses the word boundary).
        let samples: Vec<u64> = (0..130).map(|i| (i % 2) as u64).collect();
        let mut stim = Stimulus::new();
        stim.port("x", samples);
        let res = try_simulate(&nl, &stim).unwrap();
        // x toggles every sample: 129 transitions.
        assert_eq!(res.activity.toggles(x[0]), 129);
        assert_eq!(res.activity.toggles(nx), 129);
        assert_eq!(res.activity.ones(x[0]), 65);
        assert_eq!(res.activity.ones(nx), 65);
    }

    #[test]
    fn tau_identifies_dominant_constant() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input_port("x", 1);
        b.output_port("y", x);
        let nl = b.finish();
        // 90% ones.
        let samples: Vec<u64> = (0..100).map(|i| u64::from(i % 10 != 0)).collect();
        let mut stim = Stimulus::new();
        stim.port("x", samples);
        let res = try_simulate(&nl, &stim).unwrap();
        let x0 = nl.input_ports()[0].bits[0];
        let (tau, value) = res.activity.tau(x0);
        assert!((tau - 0.9).abs() < 1e-12);
        assert!(value);
    }

    #[test]
    fn try_simulate_reports_typed_errors() {
        let nl = adder_netlist();

        assert!(matches!(try_simulate(&nl, &Stimulus::new()), Err(SimError::EmptyStimulus)));

        let mut missing = Stimulus::new();
        missing.port("x", vec![0]);
        assert!(matches!(
            try_simulate(&nl, &missing),
            Err(SimError::MissingPort { port }) if port == "y"
        ));

        let mut oversized = Stimulus::new();
        oversized.port("x", vec![16]).port("y", vec![0]);
        assert!(matches!(
            try_simulate(&nl, &oversized),
            Err(SimError::OversizedSample { value: 16, width: 4, .. })
        ));

        let mut ragged = Stimulus::new();
        ragged.port("x", vec![0, 1]).port("y", vec![0]);
        assert!(matches!(try_simulate(&nl, &ragged), Err(SimError::SampleCountMismatch { .. })));
    }

    /// The message of `try_simulate`'s error on `stim`.
    fn error_message(stim: &Stimulus) -> String {
        try_simulate(&adder_netlist(), stim).unwrap_err().to_string()
    }

    #[test]
    fn missing_port_is_a_typed_error() {
        let mut stim = Stimulus::new();
        stim.port("x", vec![0]);
        assert!(error_message(&stim).contains("misses input port `y`"));
    }

    #[test]
    fn oversized_sample_is_a_typed_error() {
        let mut stim = Stimulus::new();
        stim.port("x", vec![16]).port("y", vec![0]);
        assert!(error_message(&stim).contains("does not fit port `x`"));
    }

    #[test]
    fn empty_stimulus_is_a_typed_error() {
        assert!(error_message(&Stimulus::new()).contains("empty stimulus"));
    }
}
