//! Plain-text serialization for quantized models.
//!
//! The paper's flow "receives as input a trained model (e.g., dumped from
//! scikit-learn)"; this module is the equivalent dump format so a model
//! can travel from the training step to the hardware flow as a file.
//!
//! ```text
//! pax-model v1
//! name cardio
//! kind mlp-c
//! classes 3
//! spec 4 8 8
//! shift 3
//! hidden_width 8
//! output_scale 2.98e-5
//! layer1 3 21
//! <bias> <w0> <w1> … per line
//! layer2 3 3
//! …
//! end
//! ```

use crate::quant::{ModelKind, QuantSpec, QuantizedModel, QuantizedSum};

/// Serializes a quantized model to the text format.
pub fn to_text(m: &QuantizedModel) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "pax-model v1");
    let _ = writeln!(out, "name {}", m.name);
    let _ = writeln!(out, "kind {}", m.kind.tag());
    let _ = writeln!(out, "classes {}", m.n_classes);
    let _ = writeln!(out, "spec {} {} {}", m.spec.input_bits, m.spec.coef_bits, m.spec.hidden_bits);
    let _ = writeln!(out, "shift {}", m.hidden_shift);
    let _ = writeln!(out, "hidden_width {}", m.hidden_width);
    let _ = writeln!(out, "output_scale {:e}", m.output_scale);
    for (tag, layer) in [("layer1", &m.layer1), ("layer2", &m.layer2)] {
        if layer.is_empty() {
            continue;
        }
        let _ = writeln!(out, "{tag} {} {}", layer.len(), layer[0].weights.len());
        for sum in layer {
            let _ = write!(out, "{}", sum.bias);
            for w in &sum.weights {
                let _ = write!(out, " {w}");
            }
            out.push('\n');
        }
    }
    out.push_str("end\n");
    out
}

/// Parses a quantized model from the text format.
///
/// # Errors
///
/// Returns a descriptive message for malformed input.
pub fn from_text(text: &str) -> Result<QuantizedModel, String> {
    let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
    let header = lines.next().ok_or("empty input")?;
    if header != "pax-model v1" {
        return Err(format!("unsupported header `{header}`"));
    }

    let mut name = None;
    let mut kind = None;
    let mut classes = None;
    let mut spec = None;
    let mut shift = None;
    let mut hidden_width = None;
    let mut output_scale = None;
    let mut layer1: Vec<QuantizedSum> = Vec::new();
    let mut layer2: Vec<QuantizedSum> = Vec::new();

    while let Some(line) = lines.next() {
        if line == "end" {
            let kind: ModelKind = kind.ok_or("missing kind")?;
            return Ok(QuantizedModel {
                name: name.ok_or("missing name")?,
                kind,
                n_classes: classes.ok_or("missing classes")?,
                spec: spec.ok_or("missing spec")?,
                layer1: if layer1.is_empty() {
                    return Err("missing layer1".into());
                } else {
                    layer1
                },
                layer2,
                hidden_shift: shift.ok_or("missing shift")?,
                hidden_width: hidden_width.ok_or("missing hidden_width")?,
                output_scale: output_scale.ok_or("missing output_scale")?,
            });
        }
        let (key, rest) = line.split_once(' ').ok_or_else(|| format!("malformed `{line}`"))?;
        match key {
            "name" => name = Some(rest.to_owned()),
            "kind" => {
                kind = Some(match rest {
                    "mlp-c" => ModelKind::MlpC,
                    "mlp-r" => ModelKind::MlpR,
                    "svm-c" => ModelKind::SvmC,
                    "svm-r" => ModelKind::SvmR,
                    other => return Err(format!("unknown kind `{other}`")),
                })
            }
            "classes" => classes = Some(rest.parse().map_err(|_| "bad classes")?),
            "spec" => {
                let v: Vec<u32> = rest
                    .split_whitespace()
                    .map(|t| t.parse().map_err(|_| format!("bad spec `{rest}`")))
                    .collect::<Result<_, _>>()?;
                if v.len() != 3 {
                    return Err(format!("spec needs 3 fields, got {}", v.len()));
                }
                // `QuantSpec::input_max` computes `(1 << input_bits) - 1`
                // and `coef_range` shifts by `coef_bits - 1`, in `i64`.
                if v[0] > 62 || !(1..=63).contains(&v[1]) {
                    return Err(format!(
                        "spec `{rest}`: input bits must be at most 62 and coefficient bits 1..=63"
                    ));
                }
                spec = Some(QuantSpec { input_bits: v[0], coef_bits: v[1], hidden_bits: v[2] });
            }
            "shift" => {
                let v: u32 = rest.parse().map_err(|_| "bad shift")?;
                // Hidden activations are `i64`s shifted right by this.
                if v > 63 {
                    return Err(format!("shift {v} exceeds 63"));
                }
                shift = Some(v);
            }
            "hidden_width" => hidden_width = Some(rest.parse().map_err(|_| "bad hidden_width")?),
            "output_scale" => output_scale = Some(rest.parse().map_err(|_| "bad output_scale")?),
            "layer1" | "layer2" => {
                let dims: Vec<usize> = rest
                    .split_whitespace()
                    .map(|t| t.parse().map_err(|_| format!("bad layer dims `{rest}`")))
                    .collect::<Result<_, _>>()?;
                if dims.len() != 2 {
                    return Err("layer header needs `<rows> <cols>`".into());
                }
                // Each row takes a line: bound the count by the text
                // before allocating for it.
                let left = lines.clone().take(dims[0]).count();
                if left < dims[0] {
                    return Err(format!(
                        "{key} declares {} rows, only {left} lines remain",
                        dims[0]
                    ));
                }
                let mut sums = Vec::with_capacity(dims[0]);
                for _ in 0..dims[0] {
                    let row = lines.next().ok_or("truncated layer")?;
                    let vals: Vec<i64> = row
                        .split_whitespace()
                        .map(|t| t.parse().map_err(|_| format!("bad weight `{t}`")))
                        .collect::<Result<_, _>>()?;
                    if vals.len() != dims[1].saturating_add(1) {
                        return Err(format!(
                            "row has {} values, expected bias + {} weights",
                            vals.len(),
                            dims[1]
                        ));
                    }
                    sums.push(QuantizedSum { bias: vals[0], weights: vals[1..].to_vec() });
                }
                if key == "layer1" {
                    layer1 = sums;
                } else {
                    layer2 = sums;
                }
            }
            other => return Err(format!("unknown field `{other}`")),
        }
    }
    Err("missing `end`".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearClassifier, Mlp, MlpTask};
    use crate::quant::QuantizedModel;

    fn sample_mlp_model() -> QuantizedModel {
        let mlp = Mlp::new(
            vec![vec![0.5, -0.25, 0.1], vec![0.7, 0.2, -0.6]],
            vec![0.05, -0.1],
            vec![vec![0.9, -0.4], vec![-0.2, 0.8]],
            vec![0.0, 0.1],
            MlpTask::Classification,
        );
        QuantizedModel::from_mlp("demo", &mlp, 2, Default::default())
    }

    #[test]
    fn roundtrip_mlp() {
        let m = sample_mlp_model();
        let text = to_text(&m);
        let back = from_text(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn roundtrip_linear() {
        let svc = LinearClassifier::new(
            vec![vec![0.3, -0.9], vec![0.2, 0.4], vec![-0.5, 0.1]],
            vec![0.0, -0.2, 0.7],
        );
        let m = QuantizedModel::from_linear_classifier("svc", &svc, Default::default());
        let back = from_text(&to_text(&m)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn malformed_inputs_are_errors() {
        assert!(from_text("").is_err());
        assert!(from_text("wrong header\nend\n").is_err());
        assert!(from_text("pax-model v1\nend\n").is_err(), "missing fields");
        let m = sample_mlp_model();
        let text = to_text(&m);
        assert!(from_text(&text.replace("end", "")).is_err(), "missing end");
        assert!(from_text(&text.replace("kind mlp-c", "kind alien")).is_err());
        // Corrupt a weight row: drop the last token of the first layer row.
        let corrupted = text.replace("layer1 2 3", "layer1 2 4");
        assert!(from_text(&corrupted).is_err());
    }

    #[test]
    fn row_count_beyond_the_text_is_rejected_before_allocating() {
        let text = to_text(&sample_mlp_model()).replace("layer1 2 3", "layer1 1000000000000 3");
        let err = from_text(&text).expect_err("a trillion rows cannot fit the text");
        assert!(err.contains("1000000000000 rows"), "{err}");
        // A column count at the top of `usize` cannot overflow the row
        // length check.
        let text =
            to_text(&sample_mlp_model()).replace("layer1 2 3", &format!("layer1 2 {}", usize::MAX));
        assert!(from_text(&text).is_err());
    }

    #[test]
    fn spec_widths_that_overflow_the_quantizer_shifts_are_rejected() {
        let text = to_text(&sample_mlp_model());
        for bad in ["spec 4 0 8", "spec 63 8 8", "spec 4 64 8", "spec 4 4000000000 8"] {
            let err = from_text(&text.replace("spec 4 8 8", bad)).expect_err(bad);
            assert!(err.contains("spec"), "{bad}: {err}");
        }
        // The widest accepted spec evaluates its ranges without overflow.
        let m = from_text(&text.replace("spec 4 8 8", "spec 62 63 8")).unwrap();
        assert_eq!(m.spec.input_max(), i64::MAX >> 1);
        assert_eq!(m.spec.coef_range(), (-(1i64 << 62), (1i64 << 62) - 1));
    }

    #[test]
    fn shifts_that_overflow_the_hidden_layer_are_rejected() {
        let m = sample_mlp_model();
        let text = to_text(&m);
        let line = format!("shift {}", m.hidden_shift);
        for bad in ["shift 64", "shift 4294967295"] {
            let err = from_text(&text.replace(&line, bad)).expect_err(bad);
            assert!(err.contains("shift"), "{bad}: {err}");
        }
        // The largest accepted shift runs the hidden layer.
        let widest = from_text(&text.replace(&line, "shift 63")).unwrap();
        assert_eq!(widest.hidden_int(&[15, 15, 15]), vec![0, 0]);
    }

    #[test]
    fn loaded_model_predicts_identically() {
        let m = sample_mlp_model();
        let back = from_text(&to_text(&m)).unwrap();
        for a in 0..=4 {
            for b in 0..=4 {
                for c in 0..=4 {
                    let x = [a as f64 / 4.0, b as f64 / 4.0, c as f64 / 4.0];
                    assert_eq!(m.predict(&x), back.predict(&x));
                }
            }
        }
    }
}
