//! `paper` — regenerate the tables and figures of the DATE'22 paper.
//!
//! ```text
//! paper table1                 # Table I  (baseline circuits)
//! paper table2                 # Table II (area/power at <1% loss)
//! paper table3                 # Table III (framework runtime)
//! paper fig1                   # Fig. 1   (bespoke multiplier areas)
//! paper fig2                   # Fig. 2   (coefficient-approx reductions)
//! paper fig3                   # Fig. 3   (Pareto spaces)
//! paper proxy                  # §III-B   (area-proxy correlation)
//! paper ablations              # CSD recoding, re-synthesis, balance search
//! paper explore                # grid vs NSGA-II search (BENCH_explore.json)
//! paper prune_eval             # A/B: rebuild vs overlay evaluation (BENCH_prune_eval.json)
//! paper coeff_eval             # A/B: stacked coeff+prune, rebuild vs overlay (BENCH_coeff_eval.json)
//! paper fabric_eval            # A/B: in-process vs serve-fabric evaluation (BENCH_fabric_eval.json)
//! paper obs                    # journalled NSGA-II study + journal verification
//! paper all                    # everything
//!
//! options:
//!   --out <dir>      also write CSV/markdown artifacts to <dir>
//!   --quick          smaller synthetic datasets (fast smoke run)
//!   --circuit <str>  fig3/table2/table3: only circuits whose label
//!                    contains <str> (e.g. "redwine", "svm-c")
//! ```

use std::path::PathBuf;
use std::time::Instant;

use pax_bench::catalog::DatasetId;
use pax_bench::eval_ab::{self, Study};
use pax_bench::{
    ablations, explore, fig1, fig2, fig3, proxy, quantsweep, studies, table1, table2, table3,
};
use pax_core::mult_cache::MultCache;
use pax_ml::quant::ModelKind;
use pax_ml::synth_data::SynthConfig;

struct Options {
    out: Option<PathBuf>,
    quick: bool,
    circuit: Option<String>,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("usage: paper <table1|table2|table3|fig1|fig2|fig3|proxy|ablations|quant|explore|prune_eval|coeff_eval|fabric_eval|obs|all> [--out DIR] [--quick] [--circuit STR]");
        std::process::exit(2);
    };
    let mut opts = Options { out: None, quick: false, circuit: None };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => opts.out = Some(PathBuf::from(args.next().expect("--out needs a path"))),
            "--quick" => opts.quick = true,
            "--circuit" => {
                opts.circuit = Some(args.next().expect("--circuit needs a value"));
            }
            other => {
                eprintln!("unknown option `{other}`");
                std::process::exit(2);
            }
        }
    }
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir).expect("create output dir");
    }

    let t0 = Instant::now();
    match command.as_str() {
        "table1" => run_table1(&opts),
        "table2" => run_table23(&opts, true, false),
        "table3" => run_table23(&opts, false, true),
        "fig1" => run_fig1(&opts),
        "fig2" => run_fig2(&opts),
        "fig3" => run_fig3(&opts),
        "proxy" => run_proxy(&opts),
        "ablations" => run_ablations(&opts),
        "quant" => run_quant(&opts),
        "explore" => run_explore(&opts),
        "obs" => run_obs(&opts),
        "all" => {
            run_fig1(&opts);
            run_fig2(&opts);
            run_proxy(&opts);
            run_ablations(&opts);
            run_quant(&opts);
            run_explore(&opts);
            for study in Study::ALL {
                run_eval_ab(&opts, study);
            }
            run_table1(&opts);
            // table2/table3/fig3 share one set of studies.
            let runs = load_studies(&opts);
            emit_table2(&runs, &opts);
            emit_table3(&runs, &opts);
            emit_fig3(&runs, &opts);
        }
        other => match Study::from_name(other) {
            Some(study) => run_eval_ab(&opts, study),
            None => {
                eprintln!("unknown command `{other}`");
                std::process::exit(2);
            }
        },
    }
    eprintln!("[paper] done in {:.1} s", t0.elapsed().as_secs_f64());
}

fn synth_config(opts: &Options) -> SynthConfig {
    if opts.quick {
        SynthConfig { size_factor: 0.15, ..SynthConfig::default() }
    } else {
        SynthConfig::default()
    }
}

fn write_artifact(opts: &Options, name: &str, content: &str) {
    if let Some(dir) = &opts.out {
        let path = dir.join(name);
        std::fs::write(&path, content).expect("write artifact");
        eprintln!("[paper] wrote {}", path.display());
    }
}

fn run_table1(opts: &Options) {
    let rows = table1::build(&synth_config(opts));
    let text = table1::render(&rows);
    println!("{text}");
    write_artifact(opts, "table1.md", &text);
}

fn load_studies(opts: &Options) -> Vec<studies::StudyRun> {
    let cfg = synth_config(opts);
    match &opts.circuit {
        Some(f) => studies::run_filtered(&cfg, f),
        None => studies::run_all(&cfg),
    }
}

fn run_table23(opts: &Options, t2: bool, t3: bool) {
    let runs = load_studies(opts);
    if t2 {
        emit_table2(&runs, opts);
    }
    if t3 {
        emit_table3(&runs, opts);
    }
}

fn emit_table2(runs: &[studies::StudyRun], opts: &Options) {
    let rows = table2::build(runs);
    let text = table2::render(&rows);
    println!("{text}");
    write_artifact(opts, "table2.md", &text);
}

fn emit_table3(runs: &[studies::StudyRun], opts: &Options) {
    let rows = table3::build(runs);
    let text = table3::render(&rows);
    println!("{text}");
    write_artifact(opts, "table3.md", &text);
}

fn emit_fig3(runs: &[studies::StudyRun], opts: &Options) {
    println!("# Fig. 3 — accuracy vs normalized area\n");
    println!("{}", fig3::summarize(runs));
    write_artifact(opts, "fig3.csv", &fig3::to_csv(runs));
}

fn run_fig3(opts: &Options) {
    let runs = load_studies(opts);
    emit_fig3(&runs, opts);
}

fn run_fig1(opts: &Options) {
    let cache = MultCache::new(egt_pdk::egt_library());
    let panels = fig1::build(&cache);
    println!("# Fig. 1 — bespoke multiplier area vs coefficient value\n");
    for p in &panels {
        println!("{}", fig1::summarize(p));
    }
    println!();
    write_artifact(opts, "fig1.csv", &fig1::to_csv(&panels));
}

fn run_fig2(opts: &Options) {
    let cache = MultCache::new(egt_pdk::egt_library());
    let panels = fig2::build(&cache);
    println!("# Fig. 2 — coefficient-approximation area reduction vs e\n");
    println!("{}", fig2::summarize(&panels));
    write_artifact(opts, "fig2.csv", &fig2::to_csv(&panels));
}

fn run_proxy(opts: &Options) {
    let cache = MultCache::new(egt_pdk::egt_library());
    let n = if opts.quick { 200 } else { 1000 };
    let result = proxy::run(&cache, n, 0xC0FFEE);
    println!(
        "# Area-proxy validation (§III-B)\n\nPearson r = {:.3} over {} random weighted sums (paper: 0.91 over 1000)\n",
        result.pearson_r, n
    );
    let mut csv = String::from("proxy_mm2,actual_mm2\n");
    for (p, a) in &result.points {
        csv.push_str(&format!("{p:.3},{a:.3}\n"));
    }
    write_artifact(opts, "proxy.csv", &csv);
}

fn run_ablations(opts: &Options) {
    let text = ablations::run(&synth_config(opts));
    println!("{text}");
    write_artifact(opts, "ablations.md", &text);
}

fn run_explore(opts: &Options) {
    let cfg = synth_config(opts);
    let seed = pax_core::explore::resolve_seed(0x5EA2C4);
    let rows = explore::run(&cfg, 0.25, seed);
    println!("# Exploration strategies — exhaustive grid vs NSGA-II at 25% budget\n");
    println!("{}", explore::render(&rows));
    println!("# N-dimensional fronts — accuracy × area × power (× delay)\n");
    println!("{}", explore::render_nd(&rows));
    let json = explore::to_json(&rows, &cfg, seed);
    write_artifact(opts, "explore.json", &json);
}

fn run_eval_ab(opts: &Options, study: Study) {
    let cfg = synth_config(opts);
    let seed = pax_core::explore::resolve_seed(0x9A5E);
    let rows = eval_ab::run(study, &cfg, seed);
    println!("# {}\n", study.heading());
    println!("{}", eval_ab::render(study, &rows));
    let json = eval_ab::to_json(study, &rows, &cfg, seed);
    write_artifact(opts, &format!("{}.json", study.name()), &json);
}

fn run_obs(opts: &Options) {
    let cfg = synth_config(opts);
    let seed = pax_core::explore::resolve_seed(0x0B5);
    // Journal destination: honor PAX_OBS_JOURNAL when set (the CI job
    // does), else --out, else the temp dir.
    let path = match std::env::var(pax_obs::JOURNAL_ENV) {
        Ok(p) if !p.is_empty() => PathBuf::from(p),
        _ => opts.out.clone().unwrap_or_else(std::env::temp_dir).join("obs_journal.jsonl"),
    };
    std::fs::remove_file(&path).ok(); // journals append; verify a fresh file
    let row = pax_bench::obs::run(&cfg, seed, &path);
    println!("# Observability — journalled NSGA-II study ({})\n", row.circuit);
    println!("{}", pax_bench::obs::render(&row));
    eprintln!("[paper] journal at {}", path.display());
    if !row.passes() {
        eprintln!("[paper] observability verification FAILED");
        std::process::exit(1);
    }
}

fn run_quant(opts: &Options) {
    let cfg = synth_config(opts);
    // Representative circuits: the cheapest and the largest families.
    let mut points = Vec::new();
    for (d, k) in [
        (DatasetId::RedWine, ModelKind::SvmR),
        (DatasetId::Cardio, ModelKind::SvmC),
        (DatasetId::WhiteWine, ModelKind::MlpC),
    ] {
        points.extend(quantsweep::sweep(d, k, &cfg));
    }
    println!("# Precision sweep — accuracy vs fixed-point widths (§III-A)\n");
    println!("{}", quantsweep::render(&points));
    println!("(the paper selects 4-bit inputs / 8-bit coefficients as the accuracy plateau)\n");
    write_artifact(opts, "quantsweep.csv", &quantsweep::to_csv(&points));
}
