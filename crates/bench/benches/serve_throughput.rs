//! Serving throughput: samples/sec through both `pax-serve` backends at
//! batch sizes {1, 8, 64, 256}, against the per-sample `eval_ports`
//! scalar baseline on the *same* netlist — the number the batcher
//! exists to beat. The acceptance bar is batched `NetlistBackend`
//! ≥ 10× the scalar loop; the summary table prints the measured ratio.
//!
//! A second comparison pits the interpreted `try_simulate` path against the
//! compiled tape (`CompiledNetlist`) on a study-sized stimulus, with
//! and without activity accounting. Acceptance bar: compiled with
//! activity disabled ≥ 3× interpreted. The measured numbers are
//! recorded in `BENCH_compiled_eval.json`.

use std::hint::black_box;
use std::time::Instant;

use pax_bespoke::{stimulus_for_rows, BespokeCircuit};
use pax_ml::model::LinearClassifier;
use pax_ml::quant::{QuantSpec, QuantizedModel};
use pax_netlist::{eval, Netlist};
use pax_serve::{Backend, NetlistBackend, QuantBackend};
use pax_sim::{try_simulate, CompiledNetlist};
use pax_synth::opt;

const BATCH_SIZES: [usize; 4] = [1, 8, 64, 256];
/// Samples per timed iteration — identical across variants so per-iter
/// times compare directly.
const SAMPLES_PER_ITER: usize = 256;
/// Stimulus size for the interpreter-vs-compiled comparison — the shape
/// of one study simulation (a full dataset), not one serving batch.
const STUDY_SAMPLES: usize = 4096;

/// A cardio-like workload: 5 features, 3 classes, deterministic
/// weights (no training inside a benchmark).
fn workload() -> (QuantizedModel, Netlist, Vec<Vec<i64>>) {
    let weights: Vec<Vec<f64>> = (0..3)
        .map(|k| (0..5).map(|i| (((k * 5 + i) as f64) * 0.739).sin() * 0.9).collect())
        .collect();
    let svc = LinearClassifier::new(weights, vec![0.02, -0.05, 0.1]);
    let model = QuantizedModel::from_linear_classifier("serve-bench", &svc, QuantSpec::default());
    let netlist = opt::optimize(&BespokeCircuit::generate(&model).netlist);
    let max = model.spec.input_max();
    let mut state = 0x5EEDu64;
    let rows: Vec<Vec<i64>> = (0..SAMPLES_PER_ITER)
        .map(|_| {
            (0..5)
                .map(|_| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((state >> 33) as i64) % (max + 1)
                })
                .collect()
        })
        .collect();
    (model, netlist, rows)
}

/// The pre-batching baseline: one scalar `eval_ports` walk per sample.
fn eval_ports_loop(netlist: &Netlist, rows: &[Vec<i64>]) -> usize {
    let port_names: Vec<String> = (0..rows[0].len()).map(|i| format!("x{i}")).collect();
    let mut agree = 0usize;
    for row in rows {
        let inputs: Vec<(&str, u64)> =
            port_names.iter().map(String::as_str).zip(row.iter().map(|&v| v as u64)).collect();
        let outs = eval::eval_ports(netlist, &inputs);
        agree += outs["class"] as usize;
    }
    agree
}

/// Mean seconds per execution of `f` over `reps` runs (after one
/// warm-up), for the printed samples/sec table.
fn time_it(mut f: impl FnMut(), reps: usize) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn main() {
    let (model, netlist, rows) = workload();
    let nb = NetlistBackend::new(netlist.clone(), model.clone());
    let qb = QuantBackend::new(model.clone());

    // --- Headline comparison table -----------------------------------
    let reps = 20;
    let scalar_s = time_it(
        || {
            black_box(eval_ports_loop(&netlist, &rows));
        },
        reps,
    );
    let scalar_rate = SAMPLES_PER_ITER as f64 / scalar_s;
    println!("# serve_throughput — {SAMPLES_PER_ITER} samples/iteration, {reps} reps");
    println!("# {:<28} {:>14} {:>12}", "variant", "samples/sec", "vs scalar");
    println!("# {:<28} {:>14.0} {:>11.1}x", "eval_ports per-sample", scalar_rate, 1.0);
    for &batch in &BATCH_SIZES {
        let chunks: Vec<&[Vec<i64>]> = rows.chunks(batch).collect();
        let nb_s = time_it(
            || {
                for chunk in &chunks {
                    black_box(nb.try_classify(chunk).unwrap());
                }
            },
            reps,
        );
        let qb_s = time_it(
            || {
                for chunk in &chunks {
                    black_box(qb.try_classify(chunk).unwrap());
                }
            },
            reps,
        );
        let nb_rate = SAMPLES_PER_ITER as f64 / nb_s;
        let qb_rate = SAMPLES_PER_ITER as f64 / qb_s;
        println!(
            "# {:<28} {:>14.0} {:>11.1}x",
            format!("netlist batch={batch}"),
            nb_rate,
            nb_rate / scalar_rate
        );
        println!(
            "# {:<28} {:>14.0} {:>11.1}x",
            format!("quant   batch={batch}"),
            qb_rate,
            qb_rate / scalar_rate
        );
    }
    let full_batch_s = time_it(
        || {
            for chunk in rows.chunks(64) {
                black_box(nb.try_classify(chunk).unwrap());
            }
        },
        reps,
    );
    let ratio = scalar_s / full_batch_s;
    println!("# batched netlist (64) vs per-sample eval_ports: {ratio:.1}x (acceptance bar: 10x)");

    // --- Interpreter vs compiled evaluator ---------------------------
    // Study-sized stimulus: one pass over a whole dataset, the shape
    // the pruning search and accuracy sweeps execute thousands of times.
    // Per-call times here are microseconds, so many more reps fit —
    // needed for stable rates on noisy shared machines.
    let reps = 200;
    let study_rows: Vec<Vec<i64>> =
        (0..STUDY_SAMPLES).map(|i| rows[i % rows.len()].clone()).collect();
    let study_stim = stimulus_for_rows(&model, &study_rows);
    let compiled = CompiledNetlist::compile(&netlist);
    // Bit-identity self-check before any number is recorded: the
    // functional tape run (`run`), the activity-tracked run
    // (`run_with_activity`) and the interpreter must agree on every
    // output port of the study stimulus.
    {
        let plain = compiled.run(&study_stim).unwrap();
        let tracked = compiled.run_with_activity(&study_stim).unwrap();
        let interp = try_simulate(&netlist, &study_stim).expect("valid stimulus");
        for p in netlist.output_ports() {
            assert_eq!(
                plain.port_values(&p.name),
                tracked.port_values(&p.name),
                "functional vs activity-tracked run diverge on {}",
                p.name
            );
            assert_eq!(
                plain.port_values(&p.name),
                interp.port_values(&p.name),
                "compiled tape vs interpreter diverge on {}",
                p.name
            );
        }
        println!("# self-check: compiled == activity-tracked == interpreted on all output ports");
    }
    let interp_s = time_it(
        || {
            black_box(try_simulate(&netlist, &study_stim).expect("valid stimulus"));
        },
        reps,
    );
    let compiled_act_s = time_it(
        || {
            black_box(compiled.run_with_activity(&study_stim).unwrap());
        },
        reps,
    );
    let compiled_s = time_it(
        || {
            black_box(compiled.run(&study_stim).unwrap());
        },
        reps,
    );
    // Serving packs once per batch and executes the tape
    // (`run_packed`), so the pre-packed execution rate is the number
    // batched serving rides on; `run` above additionally pays per-call
    // packing.
    let packed_narrow = compiled.pack(&study_stim).unwrap();
    let packed_wide = compiled.pack_wide(&study_stim).unwrap();
    let packed_narrow_s = time_it(
        || {
            black_box(compiled.run_packed(&packed_narrow));
        },
        reps,
    );
    let packed_wide_s = time_it(
        || {
            black_box(compiled.run_packed(&packed_wide));
        },
        reps,
    );
    let interp_rate = STUDY_SAMPLES as f64 / interp_s;
    println!("# interpreter vs compiled — {STUDY_SAMPLES} samples/iteration, {reps} reps");
    println!(
        "# compiled tape: {} instructions in {} single-kind runs",
        compiled.n_instructions(),
        compiled.n_runs(),
    );
    println!("# {:<34} {:>14} {:>12}", "variant", "samples/sec", "vs interp");
    println!("# {:<34} {:>14.0} {:>11.1}x", "simulate (interpreted, activity)", interp_rate, 1.0);
    for (label, secs) in [
        ("compiled + activity", compiled_act_s),
        ("compiled, no activity", compiled_s),
        ("pre-packed, 64-lane words", packed_narrow_s),
        ("pre-packed, 256-lane words", packed_wide_s),
    ] {
        let rate = STUDY_SAMPLES as f64 / secs;
        println!("# {:<34} {:>14.0} {:>11.1}x", label, rate, rate / interp_rate);
    }
    println!(
        "# compiled (no activity) vs interpreted simulate: {:.1}x (acceptance bar: 3x)",
        interp_s / compiled_s
    );
    println!("# 256-lane vs 64-lane pre-packed execution: {:.1}x", packed_narrow_s / packed_wide_s);
}
