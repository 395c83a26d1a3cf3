//! Correctness of every answer, and the ground truth for precision@10.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use meloppr::backend::BackendKind;
use meloppr::graph::{CsrGraph, NodeId};
use meloppr::{exact_top_k, precision_at_k, PrecisionClass, Ranking};

use crate::workload::{self, Workload, K};

/// One OK answer to check: the request it answered and what it said.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Seed node asked.
    pub seed: NodeId,
    /// Request class index.
    pub class: usize,
    /// Solver the frame names.
    pub backend: BackendKind,
    /// Rung the frame reports.
    pub precision: PrecisionClass,
    /// The ranking received.
    pub ranking: Ranking,
}

/// What the checks found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Direct queries run (one per distinct seed, class, solver and rung).
    pub direct_queries: usize,
    /// Answers checked.
    pub answers: usize,
    /// Human-readable failures (capped).
    pub failures: Vec<String>,
    /// Total failures, including those past the cap.
    pub failed: usize,
}

impl Verdict {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }
}

fn well_formed(ranking: &Ranking) -> bool {
    ranking.len() == K && ranking.windows(2).all(|w| w[0].1 >= w[1].1)
}

/// Checks every answer against a direct [`PprBackend::query`] of the
/// same request on an identically configured backend outside the
/// server, at the rung the frame reports, on the solver it names:
/// rankings must be equal (`==` on `f64`), `K` entries long and in
/// non-increasing score order.
pub fn check_answers(
    workload: &Workload,
    g: &CsrGraph,
    index: Option<&std::sync::Arc<meloppr::BallIndex>>,
    answers: &[Answer],
) -> Verdict {
    let backends = workload::backends(workload, g, index);
    let mut groups: BTreeMap<(NodeId, usize, String, String), Vec<&Answer>> = BTreeMap::new();
    for a in answers {
        let key = (
            a.seed,
            a.class,
            a.backend.to_string(),
            a.precision.to_string(),
        );
        groups.entry(key).or_default().push(a);
    }
    let mut verdict = Verdict {
        answers: answers.len(),
        ..Verdict::default()
    };
    for group in groups.values() {
        let first = group[0];
        let planned = workload::Planned {
            seed: first.seed,
            class: first.class,
            at_s: 0.0,
        };
        let mut req = workload::spec(workload, 0, &planned).to_query_request();
        if first.backend == BackendKind::Meloppr {
            req = req.with_precision(first.precision);
        }
        let Some(backend) = backends
            .iter()
            .find(|b| b.capabilities().kind == first.backend)
        else {
            verdict.fail(format!(
                "answer names unregistered solver {}",
                first.backend
            ));
            continue;
        };
        verdict.direct_queries += 1;
        let direct = match backend.query(&req) {
            Ok(outcome) => outcome,
            Err(e) => {
                verdict.fail(format!("direct query of seed {} failed: {e}", first.seed));
                continue;
            }
        };
        if direct.stats.precision_class != first.precision {
            verdict.fail(format!(
                "seed {}: direct query ran at {}, the frame reports {}",
                first.seed, direct.stats.precision_class, first.precision
            ));
        }
        for a in group {
            if !well_formed(&a.ranking) {
                verdict.fail(format!(
                    "seed {} via {}: ranking of {} entries is not {K} non-increasing scores",
                    a.seed,
                    a.backend,
                    a.ranking.len()
                ));
            } else if a.ranking != direct.ranking {
                verdict.fail(format!(
                    "seed {} via {} at {}: served ranking differs from the direct query",
                    a.seed, a.backend, a.precision
                ));
            }
        }
    }
    verdict
}

/// Exact top-`K` rankings per seed, cached on disk across runs of the
/// same graph and parameters so that the ground truth never lengthens a
/// run twice.
pub fn ground_truth(
    g: &CsrGraph,
    seeds: impl IntoIterator<Item = NodeId>,
    cache: &Path,
) -> io::Result<BTreeMap<NodeId, Ranking>> {
    let mut truth = BTreeMap::new();
    if let Ok(text) = fs::read_to_string(cache) {
        for line in text.lines() {
            if let Some((seed, ranking)) = parse_line(line) {
                truth.insert(seed, ranking);
            }
        }
    }
    let params = workload::ppr_params();
    let mut grew = false;
    for seed in seeds {
        if let std::collections::btree_map::Entry::Vacant(slot) = truth.entry(seed) {
            let ranking = exact_top_k(g, seed, &params)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            slot.insert(ranking);
            grew = true;
        }
    }
    if grew {
        let mut text = String::new();
        for (seed, ranking) in &truth {
            let cells: Vec<String> = ranking.iter().map(|(v, s)| format!("{v}:{s}")).collect();
            text.push_str(&format!("{seed} {}\n", cells.join(",")));
        }
        let tmp = cache.with_extension(format!("tmp.{}", std::process::id()));
        fs::write(&tmp, text)?;
        fs::rename(&tmp, cache)?;
    }
    Ok(truth)
}

fn parse_line(line: &str) -> Option<(NodeId, Ranking)> {
    let (seed, cells) = line.split_once(' ')?;
    let ranking = cells
        .split(',')
        .map(|cell| {
            let (v, s) = cell.split_once(':')?;
            Some((v.parse().ok()?, s.parse().ok()?))
        })
        .collect::<Option<Ranking>>()?;
    Some((seed.parse().ok()?, ranking))
}

/// Mean precision@`K` of the answers against the ground truth.
pub fn mean_precision(answers: &[Answer], truth: &BTreeMap<NodeId, Ranking>) -> f64 {
    let total: f64 = answers
        .iter()
        .map(|a| {
            truth
                .get(&a.seed)
                .map_or(0.0, |t| precision_at_k(&a.ranking, t, K))
        })
        .sum();
    total / answers.len().max(1) as f64
}
