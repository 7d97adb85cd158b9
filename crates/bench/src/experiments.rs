//! One function per paper artifact (table / figure), each returning
//! plain-text [`Table`]s that the `experiments` binary prints.

use crate::harness::{
    format_bytes, format_duration, run_workload, Algorithm, AlgorithmOutcome, HarnessConfig, Table,
};
use std::time::Instant;
use tspg_baselines::EpAlgorithm;
use tspg_core::{
    generate_tspg, quick_upper_bound_graph, tight_upper_bound_graph, QueryEngine, QuerySpec,
    VugResult,
};
use tspg_datasets::generate_transit;
use tspg_enum::{count_paths, naive_tspg};
use tspg_graph::{GraphStats, TimeInterval};

/// Table I analogue: statistics of the generated datasets at the configured
/// scale, next to the full-size statistics of the real datasets they mirror.
pub fn table1_datasets(cfg: &HarnessConfig) -> Table {
    let mut table = Table::new(
        "Table I — datasets (synthetic analogues at the configured scale)",
        &["id", "source", "|V|", "|E|", "|T|", "d", "theta", "|V| full", "|E| full"],
    );
    for spec in cfg.selected_specs() {
        let prepared = cfg.prepare(&spec);
        let stats = GraphStats::compute(&prepared.graph);
        table.push_row(vec![
            spec.id.to_string(),
            spec.source_name.to_string(),
            stats.num_vertices.to_string(),
            stats.num_edges.to_string(),
            stats.num_timestamps.to_string(),
            stats.max_degree.to_string(),
            spec.default_theta.to_string(),
            spec.full_vertices.to_string(),
            spec.full_edges.to_string(),
        ]);
    }
    table
}

/// Exp-1 / Fig. 5: total response time of the four algorithms on every
/// dataset under the default θ.
pub fn exp1_response_time(cfg: &HarnessConfig) -> Table {
    let mut table = Table::new(
        "Exp-1 (Fig. 5) — total response time per dataset",
        &["dataset", "queries", "EPdtTSG", "EPesTSG", "EPtgTSG", "VUG", "VUG speedup vs best EP"],
    );
    for spec in cfg.selected_specs() {
        let prepared = cfg.prepare(&spec);
        let outcomes: Vec<AlgorithmOutcome> = Algorithm::HEADLINE
            .iter()
            .map(|&alg| run_workload(alg, &prepared, &cfg.baseline_budget))
            .collect();
        let vug = outcomes[3];
        let best_ep = outcomes[..3].iter().filter(|o| !o.is_inf()).map(|o| o.total_elapsed).min();
        let speedup = match best_ep {
            Some(best) if vug.total_elapsed.as_secs_f64() > 0.0 => {
                format!("{:.1}x", best.as_secs_f64() / vug.total_elapsed.as_secs_f64())
            }
            _ => ">INF".to_string(),
        };
        table.push_row(vec![
            prepared.id.clone(),
            prepared.queries.len().to_string(),
            outcomes[0].render_time(),
            outcomes[1].render_time(),
            outcomes[2].render_time(),
            outcomes[3].render_time(),
            speedup,
        ]);
    }
    table
}

/// Exp-2 / Figs. 6 & 14: response time while varying the query span θ.
pub fn exp2_vary_theta(cfg: &HarnessConfig, dataset_ids: &[&str]) -> Vec<Table> {
    let mut tables = Vec::new();
    for id in dataset_ids {
        let Some(spec) = tspg_datasets::find(id) else { continue };
        if !cfg.datasets.is_empty() && !cfg.datasets.iter().any(|d| d.eq_ignore_ascii_case(id)) {
            continue;
        }
        let mut table = Table::new(
            format!("Exp-2 (Fig. 6) — response time vs theta on {id}"),
            &["theta", "EPdtTSG", "EPesTSG", "EPtgTSG", "VUG"],
        );
        for delta in [-4i64, -2, 0, 2, 4] {
            let theta = (spec.default_theta + delta).max(2);
            let prepared = cfg.prepare_with_theta(&spec, theta);
            let row: Vec<String> = Algorithm::HEADLINE
                .iter()
                .map(|&alg| run_workload(alg, &prepared, &cfg.baseline_budget).render_time())
                .collect();
            let mut cells = vec![theta.to_string()];
            cells.extend(row);
            table.push_row(cells);
        }
        tables.push(table);
    }
    tables
}

/// Exp-3 / Fig. 7: maximum and minimum per-query space consumption.
pub fn exp3_space(cfg: &HarnessConfig) -> Table {
    let mut table = Table::new(
        "Exp-3 (Fig. 7) — per-query space consumption (min / max over the workload)",
        &["dataset", "EPdtTSG", "EPesTSG", "EPtgTSG", "VUG"],
    );
    for spec in cfg.selected_specs() {
        let prepared = cfg.prepare(&spec);
        let cells: Vec<String> = Algorithm::HEADLINE
            .iter()
            .map(|&alg| {
                let agg = run_workload(alg, &prepared, &cfg.baseline_budget);
                format!("{} / {}", format_bytes(agg.min_bytes), format_bytes(agg.max_bytes))
            })
            .collect();
        let mut row = vec![prepared.id.clone()];
        row.extend(cells);
        table.push_row(row);
    }
    table
}

/// Exp-4 / Fig. 8: response time of each VUG phase.
pub fn exp4_phases(cfg: &HarnessConfig) -> Table {
    let mut table = Table::new(
        "Exp-4 (Fig. 8) — response time of each phase of VUG",
        &["dataset", "QuickUBG", "TightUBG", "EEV", "total"],
    );
    for spec in cfg.selected_specs() {
        let prepared = cfg.prepare(&spec);
        let agg = run_workload(Algorithm::Vug, &prepared, &cfg.baseline_budget);
        let (quick, tight, eev) = agg.total_phases;
        table.push_row(vec![
            prepared.id.clone(),
            format_duration(quick),
            format_duration(tight),
            format_duration(eev),
            format_duration(agg.total_elapsed),
        ]);
    }
    table
}

/// Table II: average upper-bound ratio (percentage of the tspG inside each
/// upper-bound graph) for the five constructions.
pub fn table2_upper_bound_ratio(cfg: &HarnessConfig) -> Table {
    let mut table = Table::new(
        "Table II — average upper-bound ratio (%)",
        &["dataset", "dtTSG", "esTSG", "tgTSG", "QuickUBG", "TightUBG"],
    );
    for spec in cfg.selected_specs() {
        let prepared = cfg.prepare(&spec);
        let mut totals = [0u64; 5];
        let mut tspg_edges = 0u64;
        for q in &prepared.queries {
            let vug = generate_tspg(&prepared.graph, q.source, q.target, q.window);
            tspg_edges += vug.report.result_edges as u64;
            for (i, ep) in EpAlgorithm::ALL.iter().enumerate() {
                let ub = ep.upper_bound(&prepared.graph, q.source, q.target, q.window);
                totals[i] += ub.num_edges() as u64;
            }
            totals[3] += vug.report.quick_edges as u64;
            totals[4] += vug.report.tight_edges as u64;
        }
        let ratio = |bound: u64| -> String {
            if bound == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", 100.0 * tspg_edges as f64 / bound as f64)
            }
        };
        table.push_row(vec![
            prepared.id.clone(),
            ratio(totals[0]),
            ratio(totals[1]),
            ratio(totals[2]),
            ratio(totals[3]),
            ratio(totals[4]),
        ]);
    }
    table
}

/// Exp-5 / Fig. 9: response time of the Dijkstra-based `tgTSG` versus
/// `QuickUBG` (identical reductions, different machinery).
pub fn exp5_quick_vs_tg(cfg: &HarnessConfig) -> Table {
    let mut table = Table::new(
        "Exp-5 (Fig. 9) — upper-bound graph construction: tgTSG vs QuickUBG",
        &["dataset", "tgTSG", "QuickUBG", "speedup", "edges identical"],
    );
    for spec in cfg.selected_specs() {
        let prepared = cfg.prepare(&spec);
        let mut tg_time = std::time::Duration::ZERO;
        let mut quick_time = std::time::Duration::ZERO;
        let mut identical = true;
        for q in &prepared.queries {
            let started = Instant::now();
            let tg = tspg_baselines::tg_tsg(&prepared.graph, q.source, q.target, q.window);
            tg_time += started.elapsed();
            let started = Instant::now();
            let quick = quick_upper_bound_graph(&prepared.graph, q.source, q.target, q.window);
            quick_time += started.elapsed();
            identical &= tg.edges() == quick.edges();
        }
        let speedup = if quick_time.as_secs_f64() > 0.0 {
            format!("{:.1}x", tg_time.as_secs_f64() / quick_time.as_secs_f64())
        } else {
            "-".to_string()
        };
        table.push_row(vec![
            prepared.id.clone(),
            format_duration(tg_time),
            format_duration(quick_time),
            speedup,
            identical.to_string(),
        ]);
    }
    table
}

/// Exp-5 / Figs. 10 & 15: upper-bound generation time and ratio while
/// varying θ on selected datasets.
pub fn exp5_vary_theta(cfg: &HarnessConfig, dataset_ids: &[&str]) -> Vec<Table> {
    let mut tables = Vec::new();
    for id in dataset_ids {
        let Some(spec) = tspg_datasets::find(id) else { continue };
        let mut table = Table::new(
            format!("Exp-5 (Fig. 10) — upper-bound generation vs theta on {id}"),
            &["theta", "QuickUBG time", "TightUBG time", "QuickUBG ratio %", "TightUBG ratio %"],
        );
        for delta in [-4i64, -2, 0, 2, 4] {
            let theta = (spec.default_theta + delta).max(2);
            let prepared = cfg.prepare_with_theta(&spec, theta);
            let mut quick_time = std::time::Duration::ZERO;
            let mut tight_time = std::time::Duration::ZERO;
            let mut quick_edges = 0u64;
            let mut tight_edges = 0u64;
            let mut tspg_edges = 0u64;
            for q in &prepared.queries {
                let started = Instant::now();
                let gq = quick_upper_bound_graph(&prepared.graph, q.source, q.target, q.window);
                quick_time += started.elapsed();
                let started = Instant::now();
                let gt = tight_upper_bound_graph(&gq, q.source, q.target);
                tight_time += started.elapsed();
                quick_edges += gq.num_edges() as u64;
                tight_edges += gt.num_edges() as u64;
                tspg_edges += generate_tspg(&prepared.graph, q.source, q.target, q.window)
                    .report
                    .result_edges as u64;
            }
            let pct = |bound: u64| {
                if bound == 0 {
                    "-".into()
                } else {
                    format!("{:.1}", 100.0 * tspg_edges as f64 / bound as f64)
                }
            };
            table.push_row(vec![
                theta.to_string(),
                format_duration(quick_time),
                format_duration(tight_time),
                pct(quick_edges),
                pct(tight_edges),
            ]);
        }
        tables.push(table);
    }
    tables
}

/// Exp-6 / Fig. 11: EEV versus exhaustive enumeration, both applied to the
/// tight upper-bound graph, while varying θ.
pub fn exp6_eev_vs_enumeration(cfg: &HarnessConfig, dataset_ids: &[&str]) -> Vec<Table> {
    let mut tables = Vec::new();
    for id in dataset_ids {
        let Some(spec) = tspg_datasets::find(id) else { continue };
        let mut table = Table::new(
            format!("Exp-6 (Fig. 11) — EEV vs enumeration on G_t, dataset {id}"),
            &["theta", "Enumeration", "EEV", "speedup"],
        );
        for delta in [-2i64, 0, 2] {
            let theta = (spec.default_theta + delta).max(2);
            let prepared = cfg.prepare_with_theta(&spec, theta);
            let mut enum_time = std::time::Duration::ZERO;
            let mut eev_time = std::time::Duration::ZERO;
            let mut enum_inf = false;
            for q in &prepared.queries {
                let gq = quick_upper_bound_graph(&prepared.graph, q.source, q.target, q.window);
                let gt = tight_upper_bound_graph(&gq, q.source, q.target);
                let started = Instant::now();
                let naive = naive_tspg(&gt, q.source, q.target, q.window, &cfg.baseline_budget);
                enum_time += started.elapsed();
                enum_inf |= !naive.is_exact();
                let started = Instant::now();
                let _ = tspg_core::escaped_edges_verification(
                    &gt,
                    q.source,
                    q.target,
                    q.window,
                    tspg_core::BidirOptions::default(),
                );
                eev_time += started.elapsed();
            }
            let enum_cell = if enum_inf { "INF".to_string() } else { format_duration(enum_time) };
            let speedup = if enum_inf || eev_time.is_zero() {
                ">INF".to_string()
            } else {
                format!("{:.1}x", enum_time.as_secs_f64() / eev_time.as_secs_f64())
            };
            table.push_row(vec![theta.to_string(), enum_cell, format_duration(eev_time), speedup]);
        }
        tables.push(table);
    }
    tables
}

/// Exp-7 / Fig. 12: number of edges in the tspG versus the number of
/// temporal simple paths it contains, varying θ.
pub fn exp7_paths_vs_edges(cfg: &HarnessConfig, dataset_ids: &[&str]) -> Vec<Table> {
    let mut tables = Vec::new();
    for id in dataset_ids {
        let Some(spec) = tspg_datasets::find(id) else { continue };
        let mut table = Table::new(
            format!("Exp-7 (Fig. 12) — #paths vs #edges in the tspG, dataset {id}"),
            &[
                "theta",
                "total tspG edges",
                "total tspG vertices",
                "total simple paths",
                "paths/edges",
            ],
        );
        for delta in [-2i64, 0, 2] {
            let theta = (spec.default_theta + delta).max(2);
            let prepared = cfg.prepare_with_theta(&spec, theta);
            let mut edges = 0u64;
            let mut vertices = 0u64;
            let mut paths = 0u64;
            for q in &prepared.queries {
                let vug = generate_tspg(&prepared.graph, q.source, q.target, q.window);
                edges += vug.report.result_edges as u64;
                vertices += vug.report.result_vertices as u64;
                // Counting is exponential; cap it with the baseline budget so
                // the reported number is a (usually exact) lower bound.
                let tspg_graph = vug.tspg.to_graph(prepared.graph.num_vertices());
                paths +=
                    count_paths(&tspg_graph, q.source, q.target, q.window, &cfg.baseline_budget)
                        .count;
            }
            let ratio = if edges == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", paths as f64 / edges as f64)
            };
            table.push_row(vec![
                theta.to_string(),
                edges.to_string(),
                vertices.to_string(),
                paths.to_string(),
                ratio,
            ]);
        }
        tables.push(table);
    }
    tables
}

/// Exp-9 (beyond the paper): throughput of the batch query engine.
///
/// For every selected dataset the same workload is answered three ways —
/// per-query one-shot `generate_tspg` calls (allocating all working state
/// afresh each time), the engine's sequential batch path (scratch reuse,
/// one worker), and the engine's parallel batch path (`threads` scoped
/// workers) — and the table reports wall-clock time and queries/second for
/// each, plus whether all three produced byte-identical result sets.
pub fn exp9_batch_throughput(cfg: &HarnessConfig, threads: usize) -> Table {
    let threads = threads.max(1);
    let mut table = Table::new(
        format!("Exp-9 — batch query engine throughput (parallel path: {threads} threads)"),
        &[
            "dataset",
            "queries",
            "one-shot",
            "batch x1",
            &format!("batch x{threads}"),
            "one-shot q/s",
            "batch x1 q/s",
            &format!("batch x{threads} q/s"),
            "identical",
        ],
    );
    for spec in cfg.selected_specs() {
        let prepared = cfg.prepare(&spec);
        // `Query` and the engine's `QuerySpec` are the same workspace type,
        // so the workload slice is passed through as-is.
        let queries: &[QuerySpec] = &prepared.queries;

        let started = Instant::now();
        let one_shot: Vec<VugResult> = queries
            .iter()
            .map(|q| generate_tspg(&prepared.graph, q.source, q.target, q.window))
            .collect();
        let one_shot_time = started.elapsed();

        // The cache is disabled so that the second and third runs measure
        // the raw execution paths, not cache hits.
        let engine = QueryEngine::new(prepared.graph.clone()).without_cache();
        let started = Instant::now();
        let batch_seq = engine.run_batch(queries, 1);
        let seq_time = started.elapsed();
        let started = Instant::now();
        let batch_par = engine.run_batch(queries, threads);
        let par_time = started.elapsed();

        let identical = one_shot
            .iter()
            .zip(batch_seq.iter())
            .zip(batch_par.iter())
            .all(|((a, b), c)| a.tspg == b.tspg && b.tspg == c.tspg);
        let qps = |d: std::time::Duration| -> String {
            if d.as_secs_f64() > 0.0 {
                format!("{:.0}", queries.len() as f64 / d.as_secs_f64())
            } else {
                "-".to_string()
            }
        };
        table.push_row(vec![
            prepared.id.clone(),
            queries.len().to_string(),
            format_duration(one_shot_time),
            format_duration(seq_time),
            format_duration(par_time),
            qps(one_shot_time),
            qps(seq_time),
            qps(par_time),
            identical.to_string(),
        ]);
    }
    table
}

/// Exp-8 / Fig. 13: the transit case study. Generates a synthetic bus
/// schedule (the SFMTA substitute), picks a transfer-rich query, and renders
/// the resulting tspG both as a table and as Graphviz DOT.
pub fn exp8_case_study(seed: u64) -> (Table, String) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let (graph, names) = generate_transit(&mut rng, 12, 10, 12, 2, 0.45, 240);

    // Pick the query with the richest tspG among a handful of hub pairs, to
    // mirror the Silver Ave → 30th St example of the paper.
    let hubs: Vec<_> = graph
        .non_isolated_vertices()
        .into_iter()
        .filter(|&v| names[v as usize].starts_with("Hub"))
        .collect();
    let mut best = None;
    for (i, &a) in hubs.iter().enumerate() {
        for &b in hubs.iter().skip(i + 1) {
            for begin in [30, 90, 150] {
                let window = TimeInterval::new(begin, begin + 10);
                let result = generate_tspg(&graph, a, b, window);
                let edges = result.tspg.num_edges();
                if best.as_ref().is_none_or(|(_, _, _, e)| edges > *e) && edges > 0 {
                    best = Some((a, b, window, edges));
                }
            }
        }
    }
    let (s, t, window, _) = best.expect("the schedule always has at least one connected hub pair");
    let result = generate_tspg(&graph, s, t, window);

    let mut table = Table::new(
        format!(
            "Exp-8 (Fig. 13) — transit case study: {} -> {} within {window}",
            names[s as usize], names[t as usize]
        ),
        &["from", "to", "departure"],
    );
    for e in result.tspg.edges() {
        table.push_row(vec![
            names[e.src as usize].clone(),
            names[e.dst as usize].clone(),
            e.time.to_string(),
        ]);
    }
    let tspg_graph = result.tspg.to_graph(graph.num_vertices());
    let dot = tspg_graph::io::to_dot(&tspg_graph, Some(&|v| names[v as usize].clone()));
    (table, dot)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> HarnessConfig {
        HarnessConfig { datasets: vec!["D1".into()], ..HarnessConfig::smoke() }
    }

    #[test]
    fn table1_lists_selected_datasets() {
        let t = table1_datasets(&smoke_cfg());
        assert_eq!(t.num_rows(), 1);
        assert!(t.render().contains("email-Eu-core"));
    }

    #[test]
    fn exp1_produces_one_row_per_dataset() {
        let t = exp1_response_time(&smoke_cfg());
        assert_eq!(t.num_rows(), 1);
        assert!(t.render().contains("D1"));
    }

    #[test]
    fn exp2_and_exp5_theta_sweeps_have_five_points() {
        let tables = exp2_vary_theta(&smoke_cfg(), &["D1"]);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].num_rows(), 5);
        let tables = exp5_vary_theta(&smoke_cfg(), &["D1"]);
        assert_eq!(tables[0].num_rows(), 5);
    }

    #[test]
    fn exp3_exp4_table2_run_on_smoke_config() {
        let cfg = smoke_cfg();
        assert_eq!(exp3_space(&cfg).num_rows(), 1);
        assert_eq!(exp4_phases(&cfg).num_rows(), 1);
        let t2 = table2_upper_bound_ratio(&cfg);
        assert_eq!(t2.num_rows(), 1);
    }

    #[test]
    fn exp5_reports_identical_reductions() {
        let t = exp5_quick_vs_tg(&smoke_cfg());
        assert!(t.render().contains("true"));
        assert!(!t.render().contains("false"));
    }

    #[test]
    fn exp6_and_exp7_produce_sweeps() {
        let cfg = smoke_cfg();
        let t = exp6_eev_vs_enumeration(&cfg, &["D1"]);
        assert_eq!(t[0].num_rows(), 3);
        let t = exp7_paths_vs_edges(&cfg, &["D1"]);
        assert_eq!(t[0].num_rows(), 3);
    }

    #[test]
    fn exp9_reports_identical_results_across_execution_modes() {
        let t = exp9_batch_throughput(&smoke_cfg(), 2);
        assert_eq!(t.num_rows(), 1);
        let text = t.render();
        assert!(text.contains("true"), "{text}");
        assert!(!text.contains("false"), "{text}");
    }

    #[test]
    fn exp8_case_study_produces_a_tspg_and_dot() {
        let (table, dot) = exp8_case_study(7);
        assert!(table.num_rows() > 0);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("Hub"));
    }
}
