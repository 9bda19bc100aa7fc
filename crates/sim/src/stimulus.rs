use std::collections::BTreeMap;

use crate::SimError;

/// Per-port input samples for a simulation run.
///
/// Each port receives one integer value per sample (LSB-first bit
/// encoding, like [`pax_netlist::eval::eval_ports`]); all ports must
/// provide the same number of samples.
#[derive(Debug, Clone, Default)]
pub struct Stimulus {
    ports: BTreeMap<String, Vec<u64>>,
}

impl Stimulus {
    /// Creates an empty stimulus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a stimulus from row-major samples: `rows[s][i]` is the
    /// value of port `ports[i]` at sample `s`. This is the natural shape
    /// of serving traffic (one row per request), transposed here into
    /// the per-port columns the bit-parallel engine packs into lanes.
    ///
    /// # Panics
    ///
    /// Panics if any row's arity differs from the port count.
    pub fn from_rows<S: Into<String>>(
        ports: impl IntoIterator<Item = S>,
        rows: &[Vec<u64>],
    ) -> Self {
        let names: Vec<String> = ports.into_iter().map(Into::into).collect();
        let mut columns: Vec<Vec<u64>> = vec![Vec::with_capacity(rows.len()); names.len()];
        for row in rows {
            assert_eq!(
                row.len(),
                names.len(),
                "row has {} values for {} ports",
                row.len(),
                names.len()
            );
            for (col, &v) in columns.iter_mut().zip(row) {
                col.push(v);
            }
        }
        let mut stim = Self::new();
        for (name, col) in names.into_iter().zip(columns) {
            stim.port(name, col);
        }
        stim
    }

    /// Sets the sample vector for one input port, replacing any previous
    /// samples for that port. Returns `&mut self` for chaining.
    pub fn port(&mut self, name: impl Into<String>, samples: Vec<u64>) -> &mut Self {
        self.ports.insert(name.into(), samples);
        self
    }

    /// The samples registered for `name`.
    pub fn samples(&self, name: &str) -> Option<&[u64]> {
        self.ports.get(name).map(Vec::as_slice)
    }

    /// Number of samples (0 when empty), with disagreeing ports surfaced
    /// as a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SampleCountMismatch`] if ports disagree on
    /// sample count.
    pub fn try_n_samples(&self) -> Result<usize, SimError> {
        let mut n = None;
        for (name, v) in &self.ports {
            match n {
                None => n = Some(v.len()),
                Some(expected) if expected != v.len() => {
                    return Err(SimError::SampleCountMismatch {
                        port: name.clone(),
                        got: v.len(),
                        expected,
                    })
                }
                Some(_) => {}
            }
        }
        Ok(n.unwrap_or(0))
    }

    /// Iterates over `(port, samples)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[u64])> {
        self.ports.iter().map(|(n, v)| (n.as_str(), v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_count_consistency() {
        let mut s = Stimulus::new();
        s.port("a", vec![1, 2, 3]).port("b", vec![0, 0, 1]);
        assert_eq!(s.try_n_samples(), Ok(3));
        assert_eq!(s.samples("a"), Some(&[1, 2, 3][..]));
        assert_eq!(s.samples("c"), None);
    }

    #[test]
    fn mismatched_counts_are_typed_errors() {
        let mut s = Stimulus::new();
        s.port("a", vec![1]).port("b", vec![0, 1]);
        assert_eq!(
            s.try_n_samples(),
            Err(SimError::SampleCountMismatch { port: "b".into(), got: 2, expected: 1 })
        );
    }

    #[test]
    fn empty_stimulus_has_zero_samples() {
        assert_eq!(Stimulus::new().try_n_samples(), Ok(0));
    }

    #[test]
    fn from_rows_transposes() {
        let s = Stimulus::from_rows(["a", "b"], &[vec![1, 10], vec![2, 20], vec![3, 30]]);
        assert_eq!(s.try_n_samples(), Ok(3));
        assert_eq!(s.samples("a"), Some(&[1u64, 2, 3][..]));
        assert_eq!(s.samples("b"), Some(&[10u64, 20, 30][..]));
    }

    #[test]
    #[should_panic(expected = "row has")]
    fn from_rows_rejects_ragged_rows() {
        let _ = Stimulus::from_rows(["a", "b"], &[vec![1, 2], vec![3]]);
    }
}
