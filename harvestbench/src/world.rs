//! The fixed data every workload harvests from, the seeded work lists,
//! and the correctness reference: an in-process `Harvester::run` per
//! harvest, whose fired queries and gathered pages the system under test
//! must reproduce exactly.

use l2q_core::{Harvester, L2qConfig, L2qSelector};
use l2q_corpus::{generate, researchers_domain, AspectId, CorpusConfig, EntityId};
use l2q_service::{BundleConfig, ServingBundle};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// Corpus and harvest sizing of one workload. The corpus is part of the
/// system's data and does not change with the seed; the seed picks the
/// work drawn from it.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub entities: usize,
    pub pages: usize,
    /// Peer entities of the domain phase: the first `domain` corpus
    /// entities. Harvest targets are drawn from the rest, so every
    /// session shares the one domain model learned during set-up.
    pub domain: usize,
}

pub const SELECTORS: [&str; 3] = ["l2qp", "l2qr", "l2qbal"];

/// One harvest of the work list.
#[derive(Clone, Debug, PartialEq)]
pub struct Harvest {
    pub entity: u32,
    pub aspect: String,
    pub selector: &'static str,
    pub n_queries: usize,
}

/// What a finished session produced.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub pages: Vec<u32>,
    pub queries: Vec<String>,
}

fn corpus_config(scale: Scale) -> CorpusConfig {
    CorpusConfig {
        n_entities: scale.entities,
        pages_per_entity: scale.pages,
        ..CorpusConfig::default()
    }
}

/// Generate the corpus (deterministic in the scale).
pub fn corpus(scale: Scale) -> l2q_corpus::Corpus {
    generate(&researchers_domain(), &corpus_config(scale)).expect("valid corpus config")
}

/// The serving bundle exactly as a shard builds it: classifiers trained
/// on the corpus materialize the oracle, then the index is built.
pub fn bundle(scale: Scale) -> Arc<ServingBundle> {
    Arc::new(ServingBundle::build(
        Arc::new(corpus(scale)),
        L2qConfig::default(),
        BundleConfig::default(),
    ))
}

/// The domain peer set every session of `scale` uses.
pub fn peers(scale: Scale) -> Vec<EntityId> {
    (0..scale.domain as u32).map(EntityId).collect()
}

/// Learn (or fetch) the domain model: the last step of warm-up.
pub fn warm(bundle: &ServingBundle, scale: Scale) {
    bundle.domain_model(&peers(scale));
}

/// Harvest targets in a seeded order: every entity outside the domain
/// peer set, shuffled.
pub fn targets(scale: Scale, seed: u64) -> Vec<u32> {
    let mut ids: Vec<u32> = (scale.domain as u32..scale.entities as u32).collect();
    ids.shuffle(&mut StdRng::seed_from_u64(seed));
    ids
}

/// Aspect names of the researchers domain, in corpus order.
pub fn aspect_names() -> Vec<String> {
    researchers_domain()
        .aspects
        .iter()
        .map(|a| a.name.to_owned())
        .collect()
}

fn aspect_id(bundle: &ServingBundle, name: &str) -> AspectId {
    bundle.corpus.aspect_by_name(name).expect("known aspect")
}

/// A fresh L2Q selector of the given name.
pub fn selector(name: &str) -> L2qSelector {
    match name {
        "l2qp" => L2qSelector::l2qp(),
        "l2qr" => L2qSelector::l2qr(),
        "l2qbal" => L2qSelector::l2qbal(),
        other => panic!("no reference selector for {other}"),
    }
}

/// The reference run of one harvest, in process, on `bundle`'s data.
pub fn reference(bundle: &ServingBundle, scale: Scale, h: &Harvest) -> Outcome {
    let domain = bundle.domain_model(&peers(scale));
    let harvester = Harvester {
        corpus: &bundle.corpus,
        engine: &bundle.engine,
        oracle: &bundle.oracle,
        domain: Some(&domain),
        cfg: bundle.cfg.with_n_queries(h.n_queries),
    };
    let record = harvester.run(
        EntityId(h.entity),
        aspect_id(bundle, &h.aspect),
        &mut selector(h.selector),
    );
    Outcome {
        pages: record.gathered.iter().map(|p| p.0).collect(),
        queries: record
            .queries()
            .map(|q| q.render(&bundle.corpus.symbols))
            .collect(),
    }
}

/// Result of checking a run's outcomes against the references.
pub struct Verdict {
    pub mismatches: usize,
    /// Mean page F1 over the sessions whose pair has relevant pages.
    pub f1: f64,
}

/// The check of one session: whether it matched its reference, and its
/// page F1 (`None` when its pair has no relevant pages).
pub type Checked = (bool, Option<f64>);

impl Verdict {
    /// Sum in work-list order, so the mean is bit-identical run to run.
    pub fn of(checked: &[Checked]) -> Verdict {
        let f1s: Vec<f64> = checked.iter().filter_map(|c| c.1).collect();
        Verdict {
            mismatches: checked.iter().filter(|c| !c.0).count(),
            f1: if f1s.is_empty() {
                0.0
            } else {
                f1s.iter().sum::<f64>() / f1s.len() as f64
            },
        }
    }
}

/// Compare every outcome with its reference and score the gathered pages
/// against materialized Y, on `nproc` threads; results in input order.
pub fn check_each(
    bundle: &ServingBundle,
    scale: Scale,
    work: &[(Harvest, Outcome)],
) -> Vec<Checked> {
    let threads = crate::sys::nproc().max(1);
    let chunk = work.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = work
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut bad = 0;
                    let mut out = Vec::with_capacity(part.len());
                    for (h, got) in part {
                        let want = reference(bundle, scale, h);
                        if &want != got {
                            bad += 1;
                            if bad <= 3 {
                                eprintln!(
                                    "mismatch on {h:?}: want {} queries / {} pages, got {} / {}",
                                    want.queries.len(),
                                    want.pages.len(),
                                    got.queries.len(),
                                    got.pages.len()
                                );
                            }
                        }
                        let pages: Vec<_> =
                            got.pages.iter().map(|&p| l2q_corpus::PageId(p)).collect();
                        let f1 = l2q_eval::page_metrics(
                            &bundle.corpus,
                            &bundle.oracle,
                            EntityId(h.entity),
                            aspect_id(bundle, &h.aspect),
                            &pages,
                        )
                        .map(|m| m.f1);
                        out.push((&want == got, f1));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// [`check_each`], summed up.
pub fn check(bundle: &ServingBundle, scale: Scale, work: &[(Harvest, Outcome)]) -> Verdict {
    Verdict::of(&check_each(bundle, scale, work))
}
