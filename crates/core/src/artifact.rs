//! Servable artifacts — the deployment unit of the cross-layer flow.
//!
//! A study evaluates hundreds of designs and throws the netlists away;
//! what deploys to a printed device (and what an inference service
//! loads) is one *selected* design. An [`Artifact`] bundles everything
//! that selection needs to be served and audited later:
//!
//! * the materialized, approximated **netlist** (the hardware);
//! * the **golden model** the netlist hardwires — for
//!   `CoeffApprox`/`Cross` points the coefficient-approximated model,
//!   so an integer re-evaluation reproduces the *unpruned* circuit
//!   exactly and any divergence observed at serving time is
//!   attributable to netlist pruning alone;
//! * the recorded [`DesignPoint`] metrics (accuracy, area, power,
//!   timing) the selection was made on.
//!
//! The text format composes the existing line formats —
//! `pax_ml::serialize` for the model, `pax_netlist::textio` for the
//! netlist — under one header, so artifacts stay human-diffable and
//! reload with full structural validation.

use std::path::Path;

use pax_ml::quant::QuantizedModel;
use pax_ml::Dataset;
use pax_netlist::Netlist;

use crate::{DesignPoint, Technique};

/// A self-contained servable design bundle.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The golden (integer) model the netlist hardwires.
    pub model: QuantizedModel,
    /// The materialized approximate netlist.
    pub netlist: Netlist,
    /// The metrics recorded when the design was selected.
    pub point: DesignPoint,
}

impl Artifact {
    /// Model/dataset identifier (the registry key `pax-serve` uses).
    pub fn name(&self) -> &str {
        &self.model.name
    }

    /// Re-measures classification accuracy of the *netlist* on a
    /// normalized dataset — the check that a reloaded artifact still
    /// reproduces its recorded [`DesignPoint::accuracy`].
    pub fn measured_accuracy(&self, data: &Dataset) -> f64 {
        pax_bespoke::evaluate(&self.netlist, &self.model, data).accuracy
    }

    /// Serializes the artifact to the `pax-artifact v1` text format.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "pax-artifact v1");
        let _ = write!(
            out,
            "point {} {} {} {} {} {} {} {}",
            self.point.technique.label(),
            self.point.tau_c.map_or_else(|| "-".to_owned(), |v| format!("{v}")),
            self.point.phi_c.map_or_else(|| "-".to_owned(), |v| format!("{v}")),
            self.point.accuracy,
            self.point.area_mm2,
            self.point.power_mw,
            self.point.gate_count,
            self.point.critical_ms,
        );
        // The coefficient gene rides as an optional trailing token so
        // pre-gene artifacts (9-token point lines) keep parsing and
        // exact-base exports stay byte-identical to the old format.
        match self.point.coeff {
            Some(g) => {
                let _ = writeln!(out, " {g}");
            }
            None => out.push('\n'),
        }
        out.push_str("model\n");
        out.push_str(&pax_ml::serialize::to_text(&self.model));
        out.push_str("netlist\n");
        out.push_str(&pax_netlist::textio::to_text(&self.netlist));
        out.push_str("end\n");
        out
    }

    /// Parses an artifact from the text format, re-validating the
    /// embedded netlist's structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for malformed input.
    pub fn from_text(text: &str) -> Result<Artifact, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty artifact")?;
        if header.trim() != "pax-artifact v1" {
            return Err(format!("unsupported artifact header `{header}`"));
        }

        let point_line = lines.next().ok_or("missing point line")?;
        let point = parse_point(point_line)?;

        if lines.next().map(str::trim) != Some("model") {
            return Err("expected `model` section".into());
        }
        let model_text = take_section(&mut lines)?;
        let model = pax_ml::serialize::from_text(&model_text)
            .map_err(|e| format!("embedded model: {e}"))?;

        if lines.next().map(str::trim) != Some("netlist") {
            return Err("expected `netlist` section".into());
        }
        let netlist_text = take_section(&mut lines)?;
        let netlist = pax_netlist::textio::from_text(&netlist_text)
            .map_err(|e| format!("embedded netlist: {e}"))?;

        match lines.find(|l| !l.trim().is_empty()) {
            Some(l) if l.trim() == "end" => {
                check_interface(&model, &netlist)?;
                Ok(Artifact { model, netlist, point })
            }
            _ => Err("missing artifact `end`".into()),
        }
    }

    /// Writes the artifact to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Loads an artifact from `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; format errors map to
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Artifact> {
        let text = std::fs::read_to_string(path)?;
        Self::from_text(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Cross-checks that the embedded netlist implements the embedded
/// model's interface — each section can be individually well-formed yet
/// mutually inconsistent in a corrupted or hand-assembled file, and the
/// serving layer constructs backends on the assumption they match.
///
/// Every model input `i` needs an input port `x{i}` wide enough for a
/// quantized sample (`spec.input_bits`), the ports
/// `BespokeCircuit::generate` builds; a wider port, up to the 64-bit
/// ceiling of the evaluators, carries the same samples.
fn check_interface(model: &QuantizedModel, netlist: &Netlist) -> Result<(), String> {
    if netlist.input_ports().len() != model.n_inputs() {
        return Err(format!(
            "netlist has {} input ports, model expects {}",
            netlist.input_ports().len(),
            model.n_inputs()
        ));
    }
    let bits = model.spec.input_bits as usize;
    for i in 0..model.n_inputs() {
        let name = format!("x{i}");
        match netlist.input_port(&name) {
            None => return Err(format!("netlist lacks model input port `{name}`")),
            Some(p) if p.width() < bits => {
                return Err(format!(
                    "netlist input port `{name}` is {} bits wide, model samples need {bits}",
                    p.width()
                ))
            }
            Some(_) => {}
        }
    }
    let out = if model.kind.is_classifier() { "class" } else { "score0" };
    if netlist.output_port(out).is_none() {
        return Err(format!("netlist lacks required output port `{out}`"));
    }
    Ok(())
}

/// Collects the lines of one embedded section up to and including its
/// own `end` terminator (both embedded formats are line-oriented and
/// end with a bare `end` line).
fn take_section<'a>(lines: &mut impl Iterator<Item = &'a str>) -> Result<String, String> {
    let mut out = String::new();
    for line in lines {
        out.push_str(line);
        out.push('\n');
        if line.trim() == "end" {
            return Ok(out);
        }
    }
    Err("truncated section (no `end`)".into())
}

fn parse_point(line: &str) -> Result<DesignPoint, String> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    // 9 tokens is the original format; a 10th optional token carries
    // the coefficient-approximation gene label.
    if !(toks.len() == 9 || toks.len() == 10) || toks[0] != "point" {
        return Err(format!("malformed point line `{line}`"));
    }
    let technique =
        Technique::from_label(toks[1]).ok_or_else(|| format!("unknown technique `{}`", toks[1]))?;
    let opt_f64 = |t: &str| -> Result<Option<f64>, String> {
        if t == "-" {
            Ok(None)
        } else {
            t.parse().map(Some).map_err(|_| format!("bad float `{t}`"))
        }
    };
    let opt_i64 = |t: &str| -> Result<Option<i64>, String> {
        if t == "-" {
            Ok(None)
        } else {
            t.parse().map(Some).map_err(|_| format!("bad int `{t}`"))
        }
    };
    let f = |t: &str| -> Result<f64, String> { t.parse().map_err(|_| format!("bad float `{t}`")) };
    let coeff = match toks.get(9) {
        None => None,
        Some(&"-") => None,
        Some(tok) => Some(
            crate::explore::CoeffGene::from_label(tok)
                .ok_or_else(|| format!("bad coeff gene `{tok}`"))?,
        ),
    };
    Ok(DesignPoint {
        technique,
        tau_c: opt_f64(toks[2])?,
        phi_c: opt_i64(toks[3])?,
        coeff,
        accuracy: f(toks[4])?,
        area_mm2: f(toks[5])?,
        power_mw: f(toks[6])?,
        gate_count: toks[7].parse().map_err(|_| format!("bad int `{}`", toks[7]))?,
        critical_ms: f(toks[8])?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{Framework, FrameworkConfig};
    use pax_ml::quant::QuantSpec;
    use pax_ml::synth_data::blobs;
    use pax_ml::train::svm::{train_svm_classifier, SvmParams};

    fn exported() -> (Artifact, Dataset) {
        let data = blobs("art", 240, 3, 3, 0.08, 9);
        let (train, test) = data.split(0.7, 1);
        let (train, test) = pax_ml::normalize(&train, &test);
        let m = train_svm_classifier(&train, &SvmParams { epochs: 40, ..Default::default() }, 3);
        let q = QuantizedModel::from_linear_classifier("art", &m, QuantSpec::default());
        let fw = Framework::new(FrameworkConfig::default());
        let study = fw.try_run_study(&q, &train, &test).expect("study");
        let point = study.best_within_loss(Technique::Cross, 0.02);
        (fw.export_artifact(&q, &train, &point), test)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (art, _) = exported();
        let back = Artifact::from_text(&art.to_text()).expect("round trip");
        assert_eq!(back.model, art.model);
        assert_eq!(back.point, art.point);
        assert_eq!(back.netlist.gate_count(), art.netlist.gate_count());
        assert_eq!(back.netlist.len(), art.netlist.len());
        assert_eq!(back.name(), "art");
    }

    #[test]
    fn reloaded_artifact_reproduces_recorded_accuracy() {
        let (art, test) = exported();
        let back = Artifact::from_text(&art.to_text()).expect("round trip");
        let acc = back.measured_accuracy(&test);
        assert!(
            (acc - back.point.accuracy).abs() < 1e-12,
            "reloaded accuracy {acc} vs recorded {}",
            back.point.accuracy
        );
    }

    #[test]
    fn exported_model_is_the_hardware_golden_model() {
        // For a Cross point the exported model carries the approximated
        // weights, which generally differ from the input model's.
        let (art, _) = exported();
        assert_eq!(art.point.technique, Technique::Cross);
        // The netlist interface matches the model shape.
        assert_eq!(art.netlist.input_ports().len(), art.model.n_inputs());
    }

    #[test]
    fn malformed_artifacts_are_rejected() {
        let (art, _) = exported();
        let text = art.to_text();
        assert!(Artifact::from_text("").is_err());
        assert!(Artifact::from_text("bogus\n").is_err());
        assert!(Artifact::from_text(&text.replace("pax-artifact v1", "v2")).is_err());
        let truncated = &text[..text.len() - 5];
        assert!(Artifact::from_text(truncated).is_err(), "missing end must fail");
        assert!(Artifact::from_text(&text.replacen("point cross-layer", "point alien", 1)).is_err());
    }

    #[test]
    fn hostile_model_sections_are_errors_not_aborts() {
        let (art, _) = exported();
        let text = art.to_text();
        // A layer header claiming a trillion rows used to abort the
        // process on the row allocation.
        let header = text.lines().find(|l| l.starts_with("layer1 ")).expect("layer1 header");
        let cols = header.rsplit(' ').next().expect("column count");
        let hostile = text.replacen(header, &format!("layer1 1000000000000 {cols}"), 1);
        let err = Artifact::from_text(&hostile).expect_err("row count beyond the text");
        assert!(err.contains("embedded model"), "{err}");
    }

    #[test]
    fn mismatched_model_netlist_interface_is_rejected() {
        // Both sections well-formed, but the netlist implements a
        // 2-input model while the embedded model expects 3 inputs.
        let (art, _) = exported();
        let svc = pax_ml::model::LinearClassifier::new(
            vec![vec![0.5, -0.5], vec![-0.5, 0.5]],
            vec![0.0, 0.0],
        );
        let other = QuantizedModel::from_linear_classifier("other", &svc, QuantSpec::default());
        let wrong = pax_bespoke::BespokeCircuit::generate(&other).netlist;
        let text = art.to_text();
        let idx = text.find("netlist\n").expect("netlist section");
        let spliced =
            format!("{}netlist\n{}end\n", &text[..idx], pax_netlist::textio::to_text(&wrong));
        let err = Artifact::from_text(&spliced).expect_err("interface mismatch must be rejected");
        assert!(err.contains("input ports"), "{err}");
    }

    /// A renamed input port loads as an error naming the missing port,
    /// not as an artifact whose accuracy check panics on the stimulus.
    #[test]
    fn renamed_input_port_is_rejected() {
        let (art, _) = exported();
        let text = art.to_text();
        let width = art.model.spec.input_bits;
        let renamed = text.replacen(&format!("input x0 {width}"), &format!("input 0 {width}"), 1);
        assert_ne!(renamed, text, "the netlist section declares `x0`");
        let err = Artifact::from_text(&renamed).expect_err("`x0` is gone");
        assert!(err.contains("`x0`"), "{err}");
    }

    /// A model spec wider than the netlist's input ports loads as an
    /// error naming the port, not as an artifact whose accuracy check
    /// panics on a sample that does not fit.
    #[test]
    fn input_port_narrower_than_the_model_spec_is_rejected() {
        let (art, _) = exported();
        let text = art.to_text();
        let spec = &art.model.spec;
        let (from, to) = (
            format!("spec {} {} {}", spec.input_bits, spec.coef_bits, spec.hidden_bits),
            format!("spec {} {} {}", spec.input_bits + 3, spec.coef_bits, spec.hidden_bits),
        );
        let widened = text.replacen(&from, &to, 1);
        assert_ne!(widened, text, "the model section declares its spec");
        let err = Artifact::from_text(&widened).expect_err("samples no longer fit `x0`");
        assert!(err.contains("`x0`"), "{err}");
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let (art, _) = exported();
        let dir = std::env::temp_dir().join("pax-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("art.paxart");
        art.save(&path).unwrap();
        let back = Artifact::load(&path).unwrap();
        assert_eq!(back.model, art.model);
        std::fs::remove_file(&path).ok();
    }
}
