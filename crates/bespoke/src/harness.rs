use pax_ml::quant::QuantizedModel;
use pax_ml::Dataset;
use pax_netlist::{eval, Netlist};
use pax_sim::{CompiledNetlist, SimError, SimOutputs, SimResult, Stimulus};

/// Batched circuit evaluation result.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// Classification accuracy against the dataset labels.
    pub accuracy: f64,
    /// Predicted class per sample.
    pub predictions: Vec<usize>,
    /// The underlying simulation (per-net activity for power/τ analyses
    /// comes from here, so accuracy and power share one run).
    pub sim: SimResult,
}

/// Builds the per-port stimulus for a normalized dataset: every feature
/// column is quantized to the model's input width.
///
/// # Panics
///
/// Panics if the dataset's feature count differs from the model's.
pub fn stimulus_for(model: &QuantizedModel, data: &Dataset) -> Stimulus {
    assert_eq!(data.n_features(), model.n_inputs(), "dataset features do not match model inputs");
    // Quantize straight into per-port columns — this runs once per
    // evaluated design point, so no intermediate row-major copies.
    let mut columns: Vec<Vec<u64>> = vec![Vec::with_capacity(data.len()); model.n_inputs()];
    for row in &data.features {
        for (col, &q) in columns.iter_mut().zip(&model.quantize_input(row)) {
            col.push(q as u64);
        }
    }
    columns_to_stimulus(columns)
}

/// Builds the per-port stimulus for already-quantized input rows — the
/// encoding the serving path (`pax-serve`) shares with the evaluation
/// harness, so batched requests hit the exact bit layout the circuits
/// were scored on.
///
/// # Panics
///
/// Panics if a row's arity differs from the model's input count, or if
/// a value is negative (circuit inputs are unsigned).
pub fn stimulus_for_rows(model: &QuantizedModel, rows: &[Vec<i64>]) -> Stimulus {
    let mut columns: Vec<Vec<u64>> = vec![Vec::with_capacity(rows.len()); model.n_inputs()];
    for row in rows {
        assert_eq!(row.len(), model.n_inputs(), "input row arity mismatch");
        for (col, &q) in columns.iter_mut().zip(row) {
            col.push(u64::try_from(q).expect("quantized inputs are unsigned"));
        }
    }
    columns_to_stimulus(columns)
}

/// Names the transposed columns `x0..xN` — the bespoke circuits' input
/// port convention.
fn columns_to_stimulus(columns: Vec<Vec<u64>>) -> Stimulus {
    let mut stim = Stimulus::new();
    for (i, col) in columns.into_iter().enumerate() {
        stim.port(format!("x{i}"), col);
    }
    stim
}

/// Simulates `netlist` (any pruned/optimized derivative of the circuit
/// generated for `model`) on the dataset and scores its predictions.
///
/// Compiles the netlist and runs the tape once; to evaluate one netlist
/// on several datasets (or across batches), compile it yourself and use
/// [`try_evaluate_compiled`].
///
/// Classifiers read the `class` port; regressors dequantize the `score0`
/// bus and round to the nearest class, exactly as the paper evaluates
/// its MLP-R/SVM-R.
///
/// # Panics
///
/// Panics if the netlist lacks the expected ports or the dataset does
/// not match the model.
pub fn evaluate(netlist: &Netlist, model: &QuantizedModel, data: &Dataset) -> EvalOutcome {
    try_evaluate_compiled(&CompiledNetlist::compile(netlist), model, data)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`evaluate`] over an already-compiled netlist, surfacing malformed
/// stimuli as [`SimError`] instead of panicking — the
/// compile-once/execute-many path study drivers use when one design
/// point is simulated on several stimuli; the error-propagating study
/// path (`pax_core::Framework::try_run_study`) builds on this.
///
/// # Panics
///
/// Still panics if the dataset's feature count differs from the model's
/// (that is a caller bug, not a data condition) or the circuit lacks its
/// output ports.
pub fn try_evaluate_compiled(
    compiled: &CompiledNetlist,
    model: &QuantizedModel,
    data: &Dataset,
) -> Result<EvalOutcome, SimError> {
    let stim = stimulus_for(model, data);
    let sim = compiled.run_with_activity(&stim)?;
    let (accuracy, predictions) = score_outputs(model, data, sim.outputs());
    Ok(EvalOutcome { accuracy, predictions, sim })
}

/// Scores already-captured simulation outputs against the dataset
/// labels: `(accuracy, per-sample predicted class)`.
///
/// This is the decoding half of [`try_evaluate_compiled`], shared with
/// evaluation paths that obtain their [`SimOutputs`] differently — the
/// overlay-based pruning evaluator scores a *masked* run of the shared
/// base tape through this exact function, which is what keeps its
/// accuracy bit-identical to a rebuild-and-resimulate.
///
/// Classifiers read the `class` port; regressors dequantize the
/// `score0` bus and round to the nearest class, exactly as the paper
/// evaluates its MLP-R/SVM-R.
///
/// # Panics
///
/// Panics if the outputs lack the expected ports or the sample count
/// differs from the dataset's.
pub fn score_outputs(
    model: &QuantizedModel,
    data: &Dataset,
    outputs: &SimOutputs,
) -> (f64, Vec<usize>) {
    assert_eq!(outputs.n_samples(), data.len(), "outputs do not cover the dataset");
    let predictions: Vec<usize> = if model.kind.is_classifier() {
        outputs.port_values("class").iter().map(|&v| v as usize).collect()
    } else {
        let width = outputs.port_width("score0").expect("regressor circuits expose score0");
        outputs
            .port_values("score0")
            .iter()
            .map(|&raw| {
                let value = eval::to_signed(raw, width) as f64 * model.output_scale;
                pax_ml::metrics::round_to_class(value, model.n_classes)
            })
            .collect()
    };
    let accuracy = pax_ml::metrics::accuracy(&predictions, &data.labels);
    (accuracy, predictions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BespokeCircuit;
    use pax_ml::model::LinearClassifier;
    use pax_ml::quant::QuantSpec;
    use pax_ml::synth_data::blobs;

    fn setup() -> (BespokeCircuit, Dataset) {
        let data = blobs("b", 300, 3, 3, 0.07, 40);
        let (train, test) = data.split(0.7, 1);
        let (train, test) = pax_ml::normalize(&train, &test);
        let m = pax_ml::train::svm::train_svm_classifier(
            &train,
            &pax_ml::train::svm::SvmParams::default(),
            5,
        );
        let q = pax_ml::quant::QuantizedModel::from_linear_classifier(
            "blobs",
            &m,
            QuantSpec::default(),
        );
        (BespokeCircuit::generate(&q), test)
    }

    #[test]
    fn batched_eval_matches_golden_model() {
        let (circuit, test) = setup();
        let outcome = evaluate(&circuit.netlist, &circuit.model, &test);
        assert_eq!(outcome.predictions.len(), test.len());
        // The integer golden model must agree sample by sample.
        for (row, &pred) in test.features.iter().zip(&outcome.predictions) {
            assert_eq!(pred, circuit.model.predict(row));
        }
        // And the circuit should have learned the blobs.
        assert!(outcome.accuracy > 0.85, "accuracy {}", outcome.accuracy);
    }

    #[test]
    fn accuracy_matches_golden_model_accuracy() {
        let (circuit, test) = setup();
        let outcome = evaluate(&circuit.netlist, &circuit.model, &test);
        let golden = circuit.model.accuracy_on(&test);
        assert!((outcome.accuracy - golden).abs() < 1e-12);
    }

    #[test]
    fn sim_result_supports_power_analysis() {
        let (circuit, test) = setup();
        let outcome = evaluate(&circuit.netlist, &circuit.model, &test);
        let lib = egt_pdk::egt_library();
        let tech = egt_pdk::TechParams::egt();
        let p =
            pax_sim::power::power(&circuit.netlist, &lib, &tech, &outcome.sim.activity).unwrap();
        assert!(p.total_mw() > tech.io_floor_mw);
    }

    #[test]
    #[should_panic(expected = "do not match")]
    fn feature_mismatch_panics() {
        let (circuit, _) = setup();
        let bad = Dataset::new("bad", vec![vec![0.1; 7]], vec![0.0], 3);
        let _ = stimulus_for(&circuit.model, &bad);
    }

    #[test]
    fn stimulus_columns_are_quantized_features() {
        let svc = LinearClassifier::new(vec![vec![1.0, -1.0], vec![-1.0, 1.0]], vec![0.0; 2]);
        let q =
            pax_ml::quant::QuantizedModel::from_linear_classifier("t", &svc, QuantSpec::default());
        let data = Dataset::new("d", vec![vec![0.0, 1.0], vec![0.5, 0.25]], vec![0.0, 1.0], 2);
        let stim = stimulus_for(&q, &data);
        assert_eq!(stim.samples("x0"), Some(&[0u64, 8][..]));
        assert_eq!(stim.samples("x1"), Some(&[15u64, 4][..]));
    }
}
