//! SAIF-lite: a minimal Switching Activity Interchange Format.
//!
//! The paper's pruning flow dumps switching activity from Questasim as a
//! SAIF file and parses τ out of it. This module provides the equivalent
//! round-trippable artifact: per net, the time spent at 0 (`T0`), at 1
//! (`T1`) and the toggle count (`TC`), with the sample count as the
//! timescale.
//!
//! ```text
//! saif "top" duration 3300 nets 5 {
//!   n0 T0 300 T1 3000 TC 45;
//!   ...
//! }
//! ```

use std::fmt::Write as _;

use pax_netlist::{NetId, Netlist};

use crate::Activity;

/// Parsed or generated SAIF-lite data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaifData {
    /// Design name.
    pub design: String,
    /// Number of samples (time units).
    pub duration: u64,
    /// Per-net `(t0, t1, tc)` triples, indexed by net.
    pub records: Vec<(u64, u64, u64)>,
}

impl SaifData {
    /// Reconstructs an [`Activity`] (ones = T1, toggles = TC).
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero.
    pub fn to_activity(&self) -> Activity {
        let ones = self.records.iter().map(|r| r.1).collect();
        let toggles = self.records.iter().map(|r| r.2).collect();
        Activity::new(self.duration as usize, ones, toggles)
    }
}

/// Serializes activity as SAIF-lite text.
pub fn to_saif(nl: &Netlist, activity: &Activity) -> String {
    let n = activity.n_samples() as u64;
    let mut out = String::new();
    let _ = writeln!(out, "saif \"{}\" duration {} nets {} {{", nl.name(), n, activity.len());
    for i in 0..activity.len() {
        let id = NetId::from_index(i);
        let t1 = activity.ones(id);
        let _ = writeln!(out, "  n{i} T0 {} T1 {} TC {};", n - t1, t1, activity.toggles(id));
    }
    out.push_str("}\n");
    out
}

/// Parses SAIF-lite text.
///
/// # Errors
///
/// Returns a descriptive message for malformed input; the error is a
/// plain `String` because SAIF-lite is a debugging artifact, not part of
/// the analysis path.
pub fn parse(text: &str) -> Result<SaifData, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty input")?;
    let rest = header.strip_prefix("saif \"").ok_or("missing `saif \"<name>\"` header")?;
    let (design, rest) = rest.split_once('"').ok_or("unterminated design name")?;
    let tokens: Vec<&str> = rest.split_whitespace().collect();
    if tokens.len() < 5 || tokens[0] != "duration" || tokens[2] != "nets" || tokens[4] != "{" {
        return Err(format!("malformed header `{header}`"));
    }
    let duration: u64 = tokens[1].parse().map_err(|_| "invalid duration")?;
    let n_nets: usize = tokens[3].parse().map_err(|_| "invalid net count")?;
    // Every net needs a line of its own, so a count the text cannot
    // back is rejected before it sizes an allocation.
    let left = lines.clone().count();
    if n_nets > left {
        return Err(format!("header declares {n_nets} nets but only {left} lines follow"));
    }

    let mut records: Vec<Option<(u64, u64, u64)>> = vec![None; n_nets];
    let mut seen = 0usize;
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "}" {
            break;
        }
        let line = line.strip_suffix(';').ok_or_else(|| format!("missing `;` in `{line}`"))?;
        let t: Vec<&str> = line.split_whitespace().collect();
        if t.len() != 7 || t[1] != "T0" || t[3] != "T1" || t[5] != "TC" {
            return Err(format!("malformed record `{line}`"));
        }
        let idx: usize = t[0]
            .strip_prefix('n')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad net name `{}`", t[0]))?;
        if idx >= n_nets {
            return Err(format!("net index {idx} out of bounds ({n_nets} nets)"));
        }
        let parse_u64 = |s: &str| s.parse::<u64>().map_err(|_| format!("bad number `{s}`"));
        let record = (parse_u64(t[2])?, parse_u64(t[4])?, parse_u64(t[6])?);
        if records[idx].replace(record).is_some() {
            return Err(format!("net n{idx} has two records"));
        }
        seen += 1;
    }
    let records: Option<Vec<_>> = records.into_iter().collect();
    let records = records.ok_or_else(|| format!("expected {n_nets} records, found {seen}"))?;
    Ok(SaifData { design: design.to_owned(), duration, records })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_simulate, Stimulus};
    use pax_netlist::NetlistBuilder;

    fn simulated() -> (pax_netlist::Netlist, Activity) {
        let mut b = NetlistBuilder::new("s");
        let x = b.input_port("x", 2);
        let g = b.xor2(x[0], x[1]);
        b.output_port("y", vec![g].into());
        let nl = b.finish();
        let mut stim = Stimulus::new();
        stim.port("x", vec![0, 1, 2, 3, 3, 2, 1, 0, 1, 1]);
        let act = try_simulate(&nl, &stim).expect("valid stimulus").activity;
        (nl, act)
    }

    #[test]
    fn roundtrip() {
        let (nl, act) = simulated();
        let text = to_saif(&nl, &act);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.design, "s");
        assert_eq!(parsed.duration, 10);
        assert_eq!(parsed.to_activity(), act);
    }

    #[test]
    fn t0_t1_sum_to_duration() {
        let (nl, act) = simulated();
        let text = to_saif(&nl, &act);
        let parsed = parse(&text).unwrap();
        for &(t0, t1, _) in &parsed.records {
            assert_eq!(t0 + t1, parsed.duration);
        }
    }

    #[test]
    fn malformed_inputs_are_errors() {
        assert!(parse("").is_err());
        assert!(parse("saif x duration 5 nets 1 {").is_err());
        assert!(parse("saif \"x\" duration 5 nets 1 {\n garbage;\n}").is_err());
        assert!(parse("saif \"x\" duration 5 nets 2 {\n n0 T0 1 T1 4 TC 0;\n}").is_err());
        assert!(
            parse("saif \"x\" duration 5 nets 1 {\n n9 T0 1 T1 4 TC 0;\n}").is_err(),
            "out-of-bounds index must fail"
        );
    }

    #[test]
    fn net_count_beyond_the_text_is_rejected_before_allocating() {
        let err = parse("saif \"x\" duration 5 nets 1000000000000 {").unwrap_err();
        assert!(err.contains("1000000000000 nets"), "{err}");
    }

    #[test]
    fn a_net_recorded_twice_is_rejected() {
        let text = "saif \"x\" duration 5 nets 2 {\n n0 T0 1 T1 4 TC 0;\n n0 T0 2 T1 3 TC 1;\n}";
        let err = parse(text).unwrap_err();
        assert!(err.contains("n0 has two records"), "{err}");
    }
}
