//! Serving demo: study the cardio classifier, pick a design off the
//! Pareto front, export it as a servable artifact, and stream live
//! traffic through the `pax-serve` engine while its metrics tick.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pax_core::artifact::Artifact;
use pax_core::framework::{Framework, FrameworkConfig};
use pax_core::Technique;
use pax_ml::quant::{QuantSpec, QuantizedModel};
use pax_ml::synth_data::{cardio, SynthConfig};
use pax_ml::train::svm::{train_svm_classifier, SvmParams};
use pax_serve::{EngineConfig, ServeEngine};

fn main() {
    // ---- Offline: train, study, select, export ----------------------
    let data = cardio(&SynthConfig::small());
    let (train, test) = data.split(0.7, 1);
    let (train, test) = pax_ml::normalize(&train, &test);
    let svm = train_svm_classifier(
        &train,
        &SvmParams { lr: 0.1, epochs: 400, batch: 64, ..Default::default() },
        0xCA2D10,
    );
    let model = QuantizedModel::from_linear_classifier("cardio", &svm, QuantSpec::default());

    let fw = Framework::new(FrameworkConfig::default());
    let study = fw.try_run_study(&model, &train, &test).expect("study");
    let front = study.pareto_front();
    // Smallest genuinely pruned cross-layer design within 2% loss — the
    // interesting case for the live auditor (nonzero divergence).
    let pick = study
        .cross
        .iter()
        .filter(|p| p.tau_c.is_some() && p.accuracy >= study.baseline.accuracy - 0.02)
        .min_by(|a, b| a.area_mm2.total_cmp(&b.area_mm2))
        .cloned()
        .unwrap_or_else(|| study.best_within_loss(Technique::Cross, 0.02));
    println!(
        "study: {} designs on the Pareto front; picked cross-layer point \
         (τc={:?}, φc={:?}) — accuracy {:.3}, {:.1} cm², {:.1} mW",
        front.len(),
        pick.tau_c,
        pick.phi_c,
        pick.accuracy,
        pick.area_cm2(),
        pick.power_mw,
    );

    let artifact = fw.export_artifact(&model, &train, &pick);
    let path = std::env::temp_dir().join("cardio.paxart");
    artifact.save(&path).expect("write artifact");
    let artifact = Artifact::load(&path).expect("reload artifact");
    println!(
        "artifact round-tripped through {} ({} gates, {} coefficients)",
        path.display(),
        artifact.netlist.gate_count(),
        artifact.model.n_coefficients(),
    );

    // ---- Online: register and stream traffic -------------------------
    let engine =
        Arc::new(ServeEngine::new(EngineConfig { audit_fraction: 0.25, ..Default::default() }));
    engine.register(artifact.clone()).expect("register cardio");

    let rows: Arc<Vec<Vec<i64>>> =
        Arc::new(test.features.iter().map(|x| artifact.model.quantize_input(x)).collect());
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let engine = Arc::clone(&engine);
            let rows = Arc::clone(&rows);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut sent = 0u64;
                // Pipelined client: keep a window of requests in flight
                // so worker batches actually fill their 64 lanes.
                while !stop.load(Ordering::Relaxed) {
                    let mut tickets = Vec::with_capacity(128);
                    for row in rows.iter().skip(c).step_by(4).take(128) {
                        match engine.submit("cardio", row.clone()) {
                            Ok(ticket) => tickets.push(ticket),
                            Err(_) => std::thread::yield_now(), // backpressure
                        }
                    }
                    sent += tickets.len() as u64;
                    for ticket in tickets {
                        let _ = ticket.wait();
                    }
                }
                sent
            })
        })
        .collect();

    for tick in 1..=5 {
        std::thread::sleep(Duration::from_millis(200));
        let snapshot = engine.metrics("cardio").expect("registered");
        println!("t+{}ms  {snapshot}", tick * 200);
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = clients.into_iter().map(|c| c.join().expect("client")).sum();

    let snapshot = engine.metrics("cardio").expect("registered");
    println!(
        "served {total} requests from 4 clients — live divergence {:.2}% \
         (recorded study accuracy loss vs golden model: {:.2}%)",
        snapshot.divergence * 100.0,
        100.0 * (study.coeff.accuracy - artifact.point.accuracy).max(0.0),
    );

    // ---- Telemetry: tail latency and the exposition formats ----------
    println!(
        "latency: mean {:.3} ms, p50 {:.3} ms, p99 {:.3} ms",
        snapshot.mean_latency_ms, snapshot.p50_latency_ms, snapshot.p99_latency_ms,
    );
    assert!(snapshot.p50_latency_ms > 0.0, "served traffic must record nonzero p50");
    assert!(snapshot.p99_latency_ms > 0.0, "served traffic must record nonzero p99");
    assert!(
        snapshot.p50_latency_ms <= snapshot.p99_latency_ms,
        "quantiles must be ordered: p50 {} > p99 {}",
        snapshot.p50_latency_ms,
        snapshot.p99_latency_ms,
    );

    let telemetry = engine.telemetry();
    println!("\n{}", telemetry.to_table());
    println!("{}", telemetry.to_prometheus());
    std::fs::remove_file(&path).ok();
}
