//! A tour of SeeDB's optimizers on one dataset: the four execution
//! strategies of Figure 5, then the four pruning schemes of §5.4 —
//! reporting latency, engine work, and result agreement for each.
//!
//! Run with: `cargo run --release --example optimizer_tour`

use seedb::core::accuracy_at_k;
use seedb::prelude::*;

fn main() {
    let dataset = seedb::data::bank::generate(0.1, 3, StoreKind::Column);
    println!(
        "BANK twin: {} rows, {:?} (dims, measures, views)\n",
        dataset.rows(),
        dataset.shape()
    );
    let target_where = "subscribed = 'yes'";

    println!("execution strategies (k = 10, EMD):");
    println!(
        "  {:<12} {:>10} {:>9} {:>12} {:>8}",
        "strategy", "elapsed", "queries", "rows", "phases"
    );
    let mut baseline_top: Vec<usize> = Vec::new();
    for strategy in ExecutionStrategy::ALL {
        let config = SeeDbConfig::for_strategy(strategy);
        let rec = run(&dataset, target_where, config);
        let top: Vec<usize> = rec.views.iter().map(|v| v.spec.id).collect();
        if baseline_top.is_empty() {
            baseline_top = top.clone();
        }
        println!(
            "  {:<12} {:>10.2?} {:>9} {:>12} {:>8}   top-k agreement {:.0}%",
            strategy.label(),
            rec.elapsed,
            rec.stats.queries_issued,
            rec.stats.rows_scanned,
            rec.phases_executed,
            accuracy_at_k(&baseline_top, &top) * 100.0
        );
    }

    println!("\npruning schemes (COMB, 10 phases):");
    let truth = {
        let mut config = SeeDbConfig::for_strategy(ExecutionStrategy::Comb);
        config.pruning = PruningKind::None;
        run(&dataset, target_where, config)
    };
    let true_top: Vec<usize> = truth.views.iter().map(|v| v.spec.id).collect();
    println!(
        "  {:<8} {:>10} {:>12} {:>10}",
        "scheme", "elapsed", "rows", "accuracy"
    );
    for pruning in PruningKind::ALL {
        let mut config = SeeDbConfig::for_strategy(ExecutionStrategy::Comb);
        config.pruning = pruning;
        let rec = run(&dataset, target_where, config);
        let top: Vec<usize> = rec.views.iter().map(|v| v.spec.id).collect();
        println!(
            "  {:<8} {:>10.2?} {:>12} {:>9.0}%",
            pruning.label(),
            rec.elapsed,
            rec.stats.rows_scanned,
            accuracy_at_k(&true_top, &top) * 100.0
        );
    }
}

fn run(dataset: &seedb::data::Dataset, target_where: &str, config: SeeDbConfig) -> Recommendation {
    seedb::recommend_sql_with(
        dataset.table.clone(),
        target_where,
        config,
        ReferenceSpec::Complement,
    )
    .expect("recommendation failed")
}
