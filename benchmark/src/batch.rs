//! The batch path: one default `QueryEngine` per dataset, driven by one
//! closed-loop caller through `run_batch_with_stats`.

use crate::live::{add_counters, pause, peak_rss_mb, since, Live, SETUP_GAP};
use crate::trace::Tracer;
use crate::verify::digest_result;
use crate::workload::Inputs;
use std::collections::BTreeMap;
use std::time::Instant;
use tspg_core::{BatchStats, QueryEngine};
use tspg_graph::{Query, TemporalGraph};

/// The counters the `stats` verb would report, summed over the engines.
fn counters(engines: &[QueryEngine], totals: &BatchStats, batches: u64) -> BTreeMap<String, u64> {
    let mut counters = BTreeMap::new();
    add_counters(&mut counters, totals.key_values());
    add_counters(&mut counters, [("batches", batches)]);
    for engine in engines {
        if let Some(cache) = engine.cache_stats() {
            add_counters(&mut counters, cache.key_values());
        }
        if let Some(profiles) = engine.profile_cache_stats() {
            add_counters(&mut counters, profiles.key_values());
        }
    }
    counters
}

/// The order the timed batches of all parts run in, as (part, batch)
/// pairs: the parts are interleaved in proportion to their batch counts,
/// so every stretch of the phase exercises every dataset in its share.
fn interleave<T>(parts: &[Vec<T>]) -> Vec<(usize, usize)> {
    let total: usize = parts.iter().map(Vec::len).sum();
    let mut taken = vec![0usize; parts.len()];
    (0..total)
        .map(|_| {
            let p = (0..parts.len())
                .filter(|&p| taken[p] < parts[p].len())
                .min_by(|&a, &b| {
                    let share = |p: usize| (taken[p] as f64 + 0.5) / parts[p].len() as f64;
                    share(a).total_cmp(&share(b))
                })
                .expect("a part has batches left");
            taken[p] += 1;
            (p, taken[p] - 1)
        })
        .collect()
}

/// Set-up: edge list → CSR → default engine, for every part. Returns the
/// engines and the seconds it took.
fn set_up(inputs: &Inputs) -> (Vec<QueryEngine>, f64) {
    let mut seconds = 0.0;
    let engines = inputs
        .parts
        .iter()
        .map(|part| {
            let edges = part.graph.edges.clone();
            let start = Instant::now();
            let engine =
                QueryEngine::new(TemporalGraph::from_edges(part.graph.num_vertices, edges));
            seconds += start.elapsed().as_secs_f64();
            engine
        })
        .collect();
    (engines, seconds)
}

/// Times `count` set-ups, each discarded.
pub fn set_up_times(inputs: &Inputs, count: usize) -> Vec<f64> {
    (0..count)
        .map(|_| {
            pause(SETUP_GAP);
            set_up(inputs).1
        })
        .collect()
}

/// Sets the engines up, then runs the warm-up and the timed batches with
/// the probe ingests spread evenly between them. With a tracer, each
/// timed `run_batch_with_stats` and `ingest` call is recorded as a span.
pub fn run(inputs: &Inputs, threads: usize, mut tracer: Option<&mut Tracer>) -> Live {
    let mut live = Live::default();
    let (engines, seconds) = set_up(inputs);
    live.setup_s.push(seconds);

    // Warm-up: the first batch of every part, untimed.
    for (part, engine) in inputs.parts.iter().zip(&engines) {
        let (results, _) = engine.run_batch_with_stats(&part.segments[0].batches[0], threads);
        live.answers.push(results.iter().map(|r| Some(digest_result(r))).collect());
    }
    let before = counters(&engines, &BatchStats::default(), 0);

    let mut totals = BatchStats::default();
    let timed: Vec<Vec<&[Query]>> = inputs
        .parts
        .iter()
        .map(|p| p.segments.iter().flat_map(|s| &s.batches).skip(1).map(Vec::as_slice).collect())
        .collect();
    let mut busy_s = vec![0.0; engines.len()];
    live.answered = vec![Vec::new(); engines.len()];
    live.calls = vec![0; engines.len()];
    let order = interleave(&timed);
    let probes = inputs.parts[0].probe_ingests.len();
    let stride = (order.len() / probes.max(1)).max(1);
    live.ingest_ms = vec![Vec::new(); inputs.parts.len()];
    for (batch_id, &(p, b)) in order.iter().enumerate() {
        let batch = timed[p][b];
        let start = Instant::now();
        let (results, stats) = engines[p].run_batch_with_stats(batch, threads);
        let end = Instant::now();
        let seconds = (end - start).as_secs_f64();
        // Each part's phase clock runs only inside its own calls, and
        // every query of a batch waits for the whole batch.
        busy_s[p] += seconds;
        live.calls[p] += 1;
        live.answered[p].extend(std::iter::repeat_n((busy_s[p], seconds * 1e3), batch.len()));
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record("live.batch", start, end, None, batch_id as u64);
        }
        totals.merge(&stats);
        live.answers[p].extend(results.iter().map(|r| Some(digest_result(r))));
        let probe = batch_id / stride;
        if (batch_id + 1) % stride == 0 && probe < probes {
            probe_ingest(inputs, probe, &mut live, tracer.as_deref_mut());
        }
    }
    for probe in order.len() / stride..probes {
        probe_ingest(inputs, probe, &mut live, tracer.as_deref_mut());
    }
    for ((part, batches), seconds) in inputs.parts.iter().zip(&timed).zip(&busy_s) {
        let queries: usize = batches.iter().map(|b| b.len()).sum();
        eprintln!(
            "{}: {:.0} queries/s over {seconds:.2} s",
            part.graph.dataset,
            queries as f64 / seconds
        );
    }
    live.peak_rss_mb = peak_rss_mb();
    live.counters = since(&before, &counters(&engines, &totals, order.len() as u64));
    live
}

/// Times probe ingest `i` of every part, each on a freshly set-up engine:
/// every ingest then pays for rebuilding the dataset's own graph, not a
/// graph grown by the probes before it, and not for freeing what the
/// timed batches left in the caches. [`run`] spreads the probes over its
/// timed phase (whose clock runs only inside the batch calls), so they
/// meet the same states of a shared machine as the batches do, in a
/// process whose heap the batches have grown, as in a long-lived service.
fn probe_ingest(inputs: &Inputs, i: usize, live: &mut Live, mut tracer: Option<&mut Tracer>) {
    let (mut engines, _) = set_up(inputs);
    for ((part, engine), times) in inputs.parts.iter().zip(&mut engines).zip(&mut live.ingest_ms) {
        let start = Instant::now();
        engine.ingest(&part.probe_ingests[i]);
        let end = Instant::now();
        times.push((end - start).as_secs_f64() * 1e3);
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record("live.ingest", start, end, None, i as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::interleave;

    #[test]
    fn interleave_spreads_parts_in_proportion() {
        let order = interleave(&[vec![(); 6], vec![(); 2]]);
        assert_eq!(order.len(), 8);
        let small: Vec<usize> =
            order.iter().enumerate().filter(|(_, (p, _))| *p == 1).map(|(i, _)| i).collect();
        assert_eq!(small, vec![2, 6], "one small-part batch in each half");
        for p in 0..2 {
            let batches: Vec<usize> =
                order.iter().filter(|(q, _)| *q == p).map(|(_, b)| *b).collect();
            assert!(batches.windows(2).all(|w| w[0] + 1 == w[1]), "each part keeps its own order");
        }
    }
}
