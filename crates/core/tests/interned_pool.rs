//! The interned selection front end must score exactly the pool the
//! `Query`-list formulation builds: at every step of full harvests on
//! both domains × L2QP/L2QR/L2QBAL, the pool read from the session's
//! candidate table equals — members and order — the page candidates
//! (`page_candidates`: every gathered page enumerated, fired queries and
//! seed subsets dropped) followed by the frequent domain queries that are
//! unfired, not seed subsets and not already pooled.
//!
//! Three situations the incremental table must not get wrong are forced:
//! a session restored from a checkpoint mid-harvest (its table starts
//! empty and catches up in one step), a frequent domain query that is
//! fired and only afterwards shows up on a gathered page, and frequent
//! domain queries that are subsets of the seed.

use l2q_aspect::RelevanceOracle;
use l2q_core::selector::{page_candidates, subset_of_seed};
use l2q_core::{
    learn_domain, pages_queries, CollectiveState, DomainModel, HarvestState, Harvester, L2qConfig,
    L2qSelector, Query, QuerySelector, SelectionInput, StepOutcome, StopwordCache,
};
use l2q_corpus::spec::DomainSpec;
use l2q_corpus::{cars_domain, generate, researchers_domain, Corpus, CorpusConfig, EntityId};
use l2q_retrieval::SearchEngine;
use l2q_text::Bow;
use std::collections::HashSet;
use std::sync::Arc;

/// The pool as the `Query`-list formulation assembles it.
fn reference_pool(input: &SelectionInput<'_>, domain: &DomainModel) -> Vec<Query> {
    let mut stops = StopwordCache::new();
    let mut pool = page_candidates(
        input.corpus,
        input.gathered,
        input.fired,
        input.cfg,
        &mut stops,
    );
    let seed = &input.fired[0];
    let mut seen: HashSet<Query> = pool.iter().cloned().collect();
    for q in domain.frequent_queries() {
        if input.fired.contains(q) || subset_of_seed(q, seed, input.corpus) {
            continue;
        }
        if seen.insert(q.clone()) {
            pool.push(q.clone());
        }
    }
    pool
}

/// What the checking selector saw over one session.
#[derive(Default)]
struct Seen {
    steps: usize,
    /// A frequent query fired while on no gathered page, which later
    /// appeared on one.
    fired_then_gathered: bool,
}

/// Wraps an L2Q selector; before each selection, checks the interned
/// pool against the reference. With `force_frequent`, the first selection
/// fires a frequent domain query that no gathered page contains yet but
/// an ungathered page of the entity does.
struct Checked<'d> {
    inner: L2qSelector,
    domain: &'d DomainModel,
    force_frequent: bool,
    forced: Option<Query>,
    seen: Seen,
}

impl Checked<'_> {
    fn forced_pick(&self, input: &SelectionInput<'_>) -> Option<Query> {
        let corpus = input.corpus;
        let gathered: HashSet<_> = input.gathered.iter().copied().collect();
        let on_pages: HashSet<Query> = pages_queries(
            corpus,
            input.gathered.iter().map(|&p| corpus.page(p)),
            input.cfg.candidates.max_len,
            &mut StopwordCache::new(),
        )
        .into_iter()
        .collect();
        self.domain
            .frequent_queries()
            .find(|q| {
                let bow = Bow::from_words(q.words());
                !on_pages.contains(*q)
                    && !input.fired.contains(q)
                    && !subset_of_seed(q, &input.fired[0], corpus)
                    && corpus
                        .pages_of(input.entity)
                        .iter()
                        .any(|p| !gathered.contains(&p.id) && p.bow().contains_all(&bow))
            })
            .cloned()
    }
}

impl QuerySelector for Checked<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn select(&mut self, input: &SelectionInput<'_>) -> Option<Query> {
        let reference = reference_pool(input, self.domain);
        let interned = self
            .inner
            .interned_pool(input)
            .expect("the harvester's table serves every incremental selection");
        assert_eq!(
            interned,
            reference,
            "{}: interned pool diverged at step {}",
            self.inner.name(),
            input.fired.len() - 1
        );
        if let Some(q) = &self.forced {
            let corpus = input.corpus;
            let bow = Bow::from_words(q.words());
            if input
                .gathered
                .iter()
                .any(|&p| corpus.page(p).bow().contains_all(&bow))
            {
                self.seen.fired_then_gathered = true;
            }
        }
        self.seen.steps += 1;
        if self.force_frequent && self.forced.is_none() {
            if let Some(q) = self.forced_pick(input) {
                self.forced = Some(q.clone());
                return Some(q);
            }
        }
        self.inner.select(input)
    }

    fn collective_state(&self) -> Option<CollectiveState> {
        self.inner.collective_state()
    }

    fn restore_collective(&mut self, state: CollectiveState) {
        self.inner.restore_collective(state);
    }
}

struct World {
    corpus: Arc<Corpus>,
    engine: SearchEngine,
    oracle: RelevanceOracle,
    domain: DomainModel,
}

/// A tiny corpus of `spec` with a domain model learned from its first
/// `peers` entities.
fn world(spec: &DomainSpec, peers: usize) -> World {
    let corpus = Arc::new(generate(spec, &CorpusConfig::tiny()).unwrap());
    let engine = SearchEngine::with_defaults(corpus.clone());
    let oracle = RelevanceOracle::from_truth(&corpus);
    let domain_entities: Vec<EntityId> = corpus.entity_ids().take(peers).collect();
    let domain = learn_domain(&corpus, &domain_entities, &oracle, &L2qConfig::default());
    World {
        corpus,
        engine,
        oracle,
        domain,
    }
}

impl World {
    fn harvester(&self) -> Harvester<'_> {
        Harvester {
            corpus: &self.corpus,
            engine: &self.engine,
            oracle: &self.oracle,
            domain: Some(&self.domain),
            cfg: L2qConfig::default(),
        }
    }
}

fn strategies() -> [L2qSelector; 3] {
    [
        L2qSelector::l2qp(),
        L2qSelector::l2qr(),
        L2qSelector::l2qbal(),
    ]
}

fn checked(inner: L2qSelector, domain: &DomainModel, force_frequent: bool) -> Checked<'_> {
    Checked {
        inner,
        domain,
        force_frequent,
        forced: None,
        seen: Seen::default(),
    }
}

/// Full harvests of `entity`, every (aspect, strategy), checked at every
/// step; each pair is harvested again with an interruption after two
/// steps, a checkpoint export and a restore into a fresh state (an empty
/// table) — same pools, same trajectory.
fn check_harvests(w: &World, entity: EntityId) {
    let harvester = w.harvester();
    for aspect in w.corpus.aspects() {
        for (inner, again) in strategies().into_iter().zip(strategies()) {
            let mut sel = checked(inner, &w.domain, false);
            let rec = harvester.run(entity, aspect, &mut sel);
            assert!(sel.seen.steps > 0);

            let mut sel = checked(again, &w.domain, false);
            sel.reset();
            let mut state = HarvestState::begin(&harvester, entity, aspect);
            for _ in 0..2 {
                state.step(&harvester, &mut sel);
            }
            let json = state.export_json(&w.corpus, sel.collective_state());
            let (mut restored, collective) = HarvestState::import_json(&json, &w.corpus).unwrap();
            if let Some(c) = collective {
                sel.restore_collective(c);
            }
            while let StepOutcome::Advanced { .. } = restored.step(&harvester, &mut sel) {}
            let resumed = restored.finish();
            let a: Vec<_> = rec.queries().collect();
            let b: Vec<_> = resumed.queries().collect();
            assert_eq!(a, b, "{}: restored session diverged", sel.name());
        }
    }
}

#[test]
fn researchers_interned_pool_matches_the_query_formulation() {
    check_harvests(&world(&researchers_domain(), 4), EntityId(6));
}

#[test]
fn cars_interned_pool_matches_the_query_formulation() {
    check_harvests(&world(&cars_domain(), 4), EntityId(6));
}

/// With every entity a domain peer, some targets' seeds cover frequent
/// domain queries (an institute several peers share): those must stay
/// out of the pool like seed-subset page candidates do.
#[test]
fn frequent_seed_subsets_stay_out_of_the_pool() {
    let w = world(&researchers_domain(), usize::MAX);
    let covered: Vec<EntityId> = w
        .corpus
        .entity_ids()
        .filter(|&e| {
            let seed = Query::new(w.corpus.seed_query(e));
            w.domain
                .frequent_queries()
                .any(|q| subset_of_seed(q, &seed, &w.corpus))
        })
        .collect();
    assert!(!covered.is_empty(), "no seed covers a frequent query");
    for e in covered {
        check_harvests(&w, e);
    }
}

/// A frequent domain query fired before any gathered page contains it
/// stays out of the pool once a page carrying it is gathered.
#[test]
fn fired_frequent_query_stays_out_after_its_page_is_gathered() {
    let mut happened = 0;
    for spec in [researchers_domain(), cars_domain()] {
        let w = world(&spec, 4);
        let harvester = w.harvester();
        for aspect in w.corpus.aspects() {
            for inner in strategies() {
                let mut sel = checked(inner, &w.domain, true);
                harvester.run(EntityId(6), aspect, &mut sel);
                if sel.seen.fired_then_gathered {
                    happened += 1;
                }
            }
        }
    }
    assert!(
        happened > 0,
        "no run gathered a page carrying its forced frequent query"
    );
}
