//! Candidate query enumeration.
//!
//! "To enumerate candidate queries from a page … we applied a sliding
//! window of ℓ words over the page for each ℓ ∈ {1, 2, …, L}" with L = 3
//! (paper Sect. VI-A). Degenerate all-stopword n-grams are pruned — they
//! carry no retrieval signal. In the entity phase, candidates additionally
//! include frequent domain queries ("we restrict to queries that occur
//! with at least 50 domain entities"), which is handled by the domain
//! phase's [`crate::domain_phase::DomainModel`].
//!
//! A harvest session keeps its candidates in a [`CandidateTable`]: every
//! query is interned to a dense id once, so the per-step selection front
//! end (pool filter, entity-graph build) works on ids and flags.

use crate::config::L2qConfig;
use crate::domain_phase::DomainModel;
use crate::fxhash::FxHasher;
use crate::query::Query;
use crate::template::{templates_of, Template, TemplateMode};
use l2q_corpus::{Corpus, Page, PageId};
use l2q_text::{is_stopword, ngrams, Bow, Sym};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Candidate enumeration configuration.
#[derive(Clone, Copy, Debug)]
pub struct CandidateConfig {
    /// Maximum query length L (paper default 3).
    pub max_len: usize,
    /// Minimum number of distinct domain entities a domain query must
    /// occur with to become an entity-phase candidate. The paper uses 50
    /// of 498 domain entities (~10%); we default to a scale-relative 10%.
    pub min_entity_support_fraction: f64,
    /// Hard cap on how many frequent domain queries join the entity-phase
    /// candidate pool (most supported first).
    pub max_domain_queries: usize,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        Self {
            max_len: 3,
            min_entity_support_fraction: 0.10,
            max_domain_queries: 2000,
        }
    }
}

/// Memoized per-symbol stopword test (string lookups done once per symbol).
#[derive(Default, Debug)]
pub struct StopwordCache {
    map: HashMap<Sym, bool>,
}

impl StopwordCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `w` is a stopword in `corpus`'s symbol table.
    pub fn is_stop(&mut self, corpus: &Corpus, w: Sym) -> bool {
        *self
            .map
            .entry(w)
            .or_insert_with(|| is_stopword(corpus.symbols.resolve(w)))
    }

    /// Whether every word of the slice is a stopword (empty ⇒ true).
    pub fn all_stop(&mut self, corpus: &Corpus, words: &[Sym]) -> bool {
        words.iter().all(|&w| self.is_stop(corpus, w))
    }
}

/// Enumerate the distinct candidate queries of one page (all-stopword
/// n-grams pruned). Order of first occurrence.
pub fn page_queries(
    corpus: &Corpus,
    page: &Page,
    max_len: usize,
    stops: &mut StopwordCache,
) -> Vec<Query> {
    let mut seen: HashSet<Query> = HashSet::new();
    let mut out = Vec::new();
    for para in &page.paragraphs {
        for gram in ngrams(&para.words, max_len) {
            if stops.all_stop(corpus, gram) {
                continue;
            }
            let q = Query::new(gram);
            if seen.insert(q.clone()) {
                out.push(q);
            }
        }
    }
    out
}

/// Enumerate distinct candidates across several pages, in first-occurrence
/// order (deterministic given page order).
pub fn pages_queries<'a, I>(
    corpus: &Corpus,
    pages: I,
    max_len: usize,
    stops: &mut StopwordCache,
) -> Vec<Query>
where
    I: IntoIterator<Item = &'a Page>,
{
    let mut seen: HashSet<Query> = HashSet::new();
    let mut out = Vec::new();
    for page in pages {
        for q in page_queries(corpus, page, max_len, stops) {
            if seen.insert(q.clone()) {
                out.push(q);
            }
        }
    }
    out
}

/// Dense `u32` ids for distinct values. Each value is stored once; a
/// lookup by any borrowed form hashes the key once and confirms against
/// the stored value (open addressing, linear probing, load ≤ 1/2).
#[derive(Debug)]
struct Interner<T> {
    items: Vec<T>,
    /// `id + 1` per occupied slot, 0 when empty; power-of-two length.
    slots: Vec<u32>,
}

impl<T> Default for Interner<T> {
    fn default() -> Self {
        Self {
            items: Vec::new(),
            slots: Vec::new(),
        }
    }
}

impl<T: Hash + Eq> Interner<T> {
    fn hash<Q: Hash + ?Sized>(key: &Q) -> u64 {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    /// The slot `key` occupies (`Ok`) or would occupy (`Err`). FxHash
    /// mixes into the high bits, so the probe starts from those.
    fn probe<Q>(&self, key: &Q) -> Result<u32, usize>
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mask = self.slots.len() - 1;
        let mut i = (Self::hash(key) >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            match self.slots[i] {
                0 => return Err(i),
                s if self.items[s as usize - 1].borrow() == key => return Ok(s - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn get<Q>(&self, key: &Q) -> Option<u32>
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if self.items.is_empty() {
            return None;
        }
        self.probe(key).ok()
    }

    /// The id of `key`, storing `make(key)` under a fresh id if it is
    /// new. Returns `(id, fresh)`.
    fn intern<Q>(&mut self, key: &Q, make: impl FnOnce(&Q) -> T) -> (u32, bool)
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if 2 * (self.items.len() + 1) > self.slots.len() {
            self.grow();
        }
        match self.probe(key) {
            Ok(id) => (id, false),
            Err(slot) => {
                self.items.push(make(key));
                self.slots[slot] = self.items.len() as u32;
                (self.items.len() as u32 - 1, true)
            }
        }
    }

    fn grow(&mut self) {
        self.slots = vec![0; (2 * self.slots.len()).max(64)];
        for id in 0..self.items.len() {
            let slot = self
                .probe::<T>(&self.items[id])
                .expect_err("interned values are distinct");
            self.slots[slot] = id as u32 + 1;
        }
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

/// Source of [`CandidateTable`] identities.
static NEXT_TABLE_UID: AtomicU64 = AtomicU64::new(1);

/// One interned candidate query of a [`CandidateTable`].
#[derive(Debug)]
struct Entry {
    /// The query's own bag (left operand of containment tests).
    bow: Bow,
    /// Range of its template ids in [`CandidateTable::template_ids`]
    /// (`None` until the query first becomes a candidate).
    templates: Option<(u32, u32)>,
    /// Enumerated from some processed page.
    on_page: bool,
    /// Fired in this session (the seed included).
    fired: bool,
    /// Every word is a seed word or a stopword (see
    /// [`crate::selector::subset_of_seed`]); set once it is a candidate.
    seed_subset: bool,
    /// In the bound domain model's frequent list.
    frequent: bool,
}

/// One harvest session's candidate queries, each interned to a dense
/// `u32` id the first time it is seen — enumerated from a gathered page,
/// fired, or listed among the domain model's frequent queries. An entry
/// carries the query's bag, its seed-subset / fired / on-page flags and
/// its template ids (templates are interned the same way), so the
/// selection front end works on ids: the pool is a filter over flags,
/// and the entity phase indexes its per-candidate caches by id instead of
/// hashing and cloning `Query` keys every step.
///
/// The harvester brings the table up to date before each selection
/// ([`CandidateTable::refresh`]) and mirrors its eligible list — page
/// candidates, unfired, not seed subsets, in first-occurrence order — as
/// the `page_candidates` the selection API hands every selector. Between
/// refreshes the table is read-only. A new table is always valid: the
/// first refresh catches up on every page and fired query (a session
/// restored from a checkpoint starts that way).
#[derive(Debug)]
pub struct CandidateTable {
    uid: u64,
    /// `(template mode, max query length)` the entries were built under.
    mode: Option<(TemplateMode, usize)>,
    queries: Interner<Query>,
    entries: Vec<Entry>,
    templates: Interner<Template>,
    template_ids: Vec<u32>,
    /// Per template id: its index in the bound domain model.
    template_domain: Vec<Option<u32>>,
    /// Identity of the bound domain model (`None` before the first
    /// refresh; 0 for "no model").
    domain: Option<u64>,
    /// Frequent domain queries, most supported first.
    frequent: Vec<u32>,
    /// Page candidates that are neither fired nor seed subsets, in first
    /// occurrence order over the processed pages.
    eligible: Vec<u32>,
    pages_done: usize,
    fired_done: usize,
}

impl Default for CandidateTable {
    fn default() -> Self {
        Self::new()
    }
}

impl CandidateTable {
    /// An empty table.
    pub fn new() -> Self {
        Self {
            uid: NEXT_TABLE_UID.fetch_add(1, Ordering::Relaxed),
            mode: None,
            queries: Interner::default(),
            entries: Vec::new(),
            templates: Interner::default(),
            template_ids: Vec::new(),
            template_domain: Vec::new(),
            domain: None,
            frequent: Vec::new(),
            eligible: Vec::new(),
            pages_done: 0,
            fired_done: 0,
        }
    }

    /// This table's process-unique identity (per-id caches elsewhere are
    /// keyed by it).
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Number of interned queries (ids are `0..len`).
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether nothing is interned yet.
    pub fn is_empty(&self) -> bool {
        self.queries.len() == 0
    }

    /// Number of interned templates (template ids are `0..n`).
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// The query with id `id`.
    pub fn query(&self, id: u32) -> &Query {
        &self.queries.items[id as usize]
    }

    /// The id of `q`, if interned.
    pub fn id_of(&self, q: &Query) -> Option<u32> {
        self.queries.get(q)
    }

    /// The template with id `t`.
    pub fn template(&self, t: u32) -> &Template {
        &self.templates.items[t as usize]
    }

    /// The bag of query `id`.
    pub(crate) fn bow(&self, id: u32) -> &Bow {
        &self.entries[id as usize].bow
    }

    /// Template ids of candidate `id`, in `templates_of` order.
    pub(crate) fn template_ids(&self, id: u32) -> &[u32] {
        match self.entries[id as usize].templates {
            Some((start, end)) => &self.template_ids[start as usize..end as usize],
            None => &[],
        }
    }

    /// Index of template `t` in `domain`, through the cached lookup when
    /// `domain` is the model this table is bound to.
    pub(crate) fn template_domain_index(&self, t: u32, domain: &DomainModel) -> Option<u32> {
        if self.domain == Some(domain.uid()) {
            self.template_domain[t as usize]
        } else {
            domain.template_index_of(self.template(t))
        }
    }

    /// Ids of the eligible page candidates, in order.
    pub fn eligible(&self) -> &[u32] {
        &self.eligible
    }

    /// Whether this table is up to date for a selection over `gathered`
    /// after `fired`, with `page_candidates` as its eligible list and
    /// `domain` (when given) as its bound model.
    pub(crate) fn serves(
        &self,
        gathered: &[PageId],
        fired: &[Query],
        page_candidates: &[Query],
        domain: Option<&DomainModel>,
        cfg: &L2qConfig,
    ) -> bool {
        self.mode == Some((cfg.template_mode, cfg.candidates.max_len))
            && self.pages_done == gathered.len()
            && self.fired_done == fired.len()
            && domain.is_none_or(|dm| self.domain == Some(dm.uid()))
            && page_candidates.len() == self.eligible.len()
            && page_candidates
                .iter()
                .zip(&self.eligible)
                .all(|(q, &id)| q == self.query(id))
    }

    /// The selection pool as ids: the eligible page candidates, then —
    /// with `frequent` — every frequent domain query that is unfired, not
    /// a seed subset and not already a page candidate. Same members, same
    /// order as the cold path's `Query` pool.
    pub(crate) fn pool(&self, frequent: bool) -> Vec<u32> {
        let mut pool = self.eligible.clone();
        if frequent {
            pool.extend(self.frequent.iter().copied().filter(|&id| {
                let e = &self.entries[id as usize];
                !e.fired && !e.seed_subset && !e.on_page
            }));
        }
        pool
    }

    /// Bring the table up to date with the session: mark the fired
    /// queries beyond the processed prefix (`fired[0]` is the seed), bind
    /// `domain`'s frequent queries, and enumerate the pages beyond the
    /// processed prefix. `eligible` is the caller's `Query` mirror of
    /// [`CandidateTable::eligible`] and is kept in step with it.
    ///
    /// `pages` and `fired` extend the lists of the previous call by
    /// appending (the harvest loop's invariant); a shorter list, or a
    /// different template mode or query length, starts the table over.
    #[allow(clippy::too_many_arguments)] // the session's inputs, each used once
    pub fn refresh(
        &mut self,
        corpus: &Corpus,
        domain: Option<&DomainModel>,
        pages: &[PageId],
        fired: &[Query],
        cfg: &L2qConfig,
        stops: &mut StopwordCache,
        eligible: &mut Vec<Query>,
    ) {
        let mode = (cfg.template_mode, cfg.candidates.max_len);
        if self.mode.is_some_and(|m| m != mode)
            || pages.len() < self.pages_done
            || fired.len() < self.fired_done
        {
            *self = Self::new();
        }
        self.mode = Some(mode);
        if self.pages_done == 0 {
            eligible.clear();
        }
        debug_assert_eq!(eligible.len(), self.eligible.len());
        for q in &fired[self.fired_done..] {
            let id = self.intern(q.words());
            let e = &mut self.entries[id as usize];
            if !e.fired {
                e.fired = true;
                if e.on_page && !e.seed_subset {
                    let at = self
                        .eligible
                        .iter()
                        .position(|&x| x == id)
                        .expect("an unfired page candidate is eligible");
                    self.eligible.remove(at);
                    eligible.remove(at);
                }
            }
        }
        self.fired_done = fired.len();

        let uid = domain.map_or(0, |dm| dm.uid());
        if self.domain != Some(uid) {
            self.bind_domain(corpus, domain);
        }

        let seed = self.seed();
        let mut words: Vec<Sym> = Vec::with_capacity(mode.1);
        for &p in &pages[self.pages_done..] {
            for para in &corpus.page(p).paragraphs {
                for gram in ngrams(&para.words, mode.1) {
                    if stops.all_stop(corpus, gram) {
                        continue;
                    }
                    words.clear();
                    words.extend_from_slice(gram);
                    words.sort_unstable();
                    let id = self.intern(&words);
                    if self.entries[id as usize].on_page {
                        continue;
                    }
                    self.entries[id as usize].on_page = true;
                    self.activate(id, corpus, domain);
                    let e = &mut self.entries[id as usize];
                    e.seed_subset = self.queries.items[id as usize]
                        .words()
                        .iter()
                        .all(|w| seed.contains(w) || stops.is_stop(corpus, *w));
                    if !e.fired && !e.seed_subset {
                        self.eligible.push(id);
                        eligible.push(self.queries.items[id as usize].clone());
                    }
                }
            }
        }
        self.pages_done = pages.len();
    }

    /// The seed's words (id 0: the first fired query interned).
    fn seed(&self) -> Box<[Sym]> {
        self.queries
            .items
            .first()
            .map(|q| q.words().into())
            .unwrap_or_default()
    }

    /// Resolve the frequent queries and template indices against
    /// `domain` (or none).
    fn bind_domain(&mut self, corpus: &Corpus, domain: Option<&DomainModel>) {
        for &id in &self.frequent {
            self.entries[id as usize].frequent = false;
        }
        self.frequent.clear();
        self.domain = Some(domain.map_or(0, |dm| dm.uid()));
        self.template_domain = (0..self.templates.len() as u32)
            .map(|t| domain.and_then(|dm| dm.template_index_of(self.template(t))))
            .collect();
        let Some(dm) = domain else { return };
        let seed = self.seed();
        for (q, content) in dm.frequent_with_content() {
            let id = self.intern(q.words());
            if self.entries[id as usize].frequent {
                continue;
            }
            self.activate(id, corpus, Some(dm));
            let e = &mut self.entries[id as usize];
            e.frequent = true;
            e.seed_subset = content.iter().all(|w| seed.contains(w));
            self.frequent.push(id);
        }
    }

    /// Intern a canonical (sorted) word slice.
    fn intern(&mut self, words: &[Sym]) -> u32 {
        let (id, fresh) = self.queries.intern(words, Query::new);
        if fresh {
            self.entries.push(Entry {
                bow: Bow::from_words(words),
                templates: None,
                on_page: false,
                fired: false,
                seed_subset: false,
                frequent: false,
            });
        }
        id
    }

    /// Enumerate and intern the templates of query `id` once it is a
    /// candidate (fired-only queries never need them).
    fn activate(&mut self, id: u32, corpus: &Corpus, domain: Option<&DomainModel>) {
        if self.entries[id as usize].templates.is_some() {
            return;
        }
        let (mode, _) = self.mode.expect("refresh sets the mode first");
        let start = self.template_ids.len() as u32;
        for t in templates_of(&self.queries.items[id as usize], corpus, mode) {
            let (tid, fresh) = self.templates.intern(&t, Template::clone);
            if fresh {
                self.template_domain
                    .push(domain.and_then(|dm| dm.template_index_of(&t)));
            }
            self.template_ids.push(tid);
        }
        self.entries[id as usize].templates = Some((start, self.template_ids.len() as u32));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2q_corpus::{generate, researchers_domain, CorpusConfig, EntityId};

    fn corpus() -> Corpus {
        generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap()
    }

    #[test]
    fn page_queries_are_distinct_and_bounded_in_length() {
        let c = corpus();
        let mut stops = StopwordCache::new();
        let page = &c.pages_of(EntityId(0))[0];
        let qs = page_queries(&c, page, 3, &mut stops);
        assert!(!qs.is_empty());
        let set: HashSet<_> = qs.iter().cloned().collect();
        assert_eq!(set.len(), qs.len(), "queries must be distinct");
        for q in &qs {
            assert!(!q.is_empty() && q.len() <= 3);
        }
    }

    #[test]
    fn all_stopword_ngrams_are_pruned() {
        let c = corpus();
        let mut stops = StopwordCache::new();
        for page in c.pages.iter().take(20) {
            for q in page_queries(&c, page, 3, &mut stops) {
                assert!(
                    !q.words().iter().all(|&w| is_stopword(c.symbols.resolve(w))),
                    "all-stopword query {} survived",
                    q.render(&c.symbols)
                );
            }
        }
    }

    #[test]
    fn multi_page_enumeration_dedupes_across_pages() {
        let c = corpus();
        let mut stops = StopwordCache::new();
        let pages = c.pages_of(EntityId(0));
        let all = pages_queries(&c, pages.iter(), 3, &mut stops);
        let set: HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), all.len());
        // Union must be at least as large as any single page's set.
        let single = page_queries(&c, &pages[0], 3, &mut stops);
        assert!(all.len() >= single.len());
    }

    #[test]
    fn enumeration_is_deterministic() {
        let c = corpus();
        let pages = c.pages_of(EntityId(1));
        let a = pages_queries(&c, pages.iter(), 3, &mut StopwordCache::new());
        let b = pages_queries(&c, pages.iter(), 3, &mut StopwordCache::new());
        assert_eq!(a, b);
    }

    /// The old formulation of the eligible list: enumerate every page,
    /// drop fired queries and seed subsets.
    fn filtered(c: &Corpus, pages: &[PageId], fired: &[Query]) -> Vec<Query> {
        let refs = pages.iter().map(|&p| c.page(p));
        pages_queries(c, refs, 3, &mut StopwordCache::new())
            .into_iter()
            .filter(|q| !fired.contains(q))
            .filter(|q| !crate::selector::subset_of_seed(q, &fired[0], c))
            .collect()
    }

    #[test]
    fn table_eligible_list_matches_batch_filtering_exactly() {
        let c = corpus();
        let cfg = L2qConfig::default();
        let pages: Vec<PageId> = c.pages_of(EntityId(2)).iter().map(|p| p.id).collect();
        let mut fired = vec![Query::new(c.seed_query(EntityId(2)))];
        let mut table = CandidateTable::new();
        let mut eligible = Vec::new();
        let mut stops = StopwordCache::new();
        for k in 1..=pages.len() {
            table.refresh(
                &c,
                None,
                &pages[..k],
                &fired,
                &cfg,
                &mut stops,
                &mut eligible,
            );
            assert_eq!(eligible, filtered(&c, &pages[..k], &fired), "prefix {k}");
            let ids: Vec<&Query> = table.eligible().iter().map(|&id| table.query(id)).collect();
            assert_eq!(ids, eligible.iter().collect::<Vec<_>>());
            // Fire a mid-list candidate: it leaves the list in place.
            if let Some(pick) = eligible.get(eligible.len() / 2) {
                fired.push(pick.clone());
            }
        }
    }

    #[test]
    fn shrinking_page_list_resets_the_table() {
        let c = corpus();
        let cfg = L2qConfig::default();
        let pages: Vec<PageId> = c.pages_of(EntityId(2)).iter().map(|p| p.id).collect();
        assert!(pages.len() >= 2);
        let fired = vec![Query::new(c.seed_query(EntityId(2)))];
        let mut table = CandidateTable::new();
        let uid = table.uid();
        let mut eligible = Vec::new();
        let mut stops = StopwordCache::new();
        table.refresh(&c, None, &pages, &fired, &cfg, &mut stops, &mut eligible);
        table.refresh(
            &c,
            None,
            &pages[..1],
            &fired,
            &cfg,
            &mut stops,
            &mut eligible,
        );
        assert_ne!(table.uid(), uid, "a reset table is a new table");
        assert_eq!(eligible, filtered(&c, &pages[..1], &fired));
    }

    /// Frequent domain queries made of seed words and stopwords leave the
    /// pool even when no page has shown them yet: their flag comes from
    /// the model's precomputed content words, not from enumeration.
    #[test]
    fn frequent_seed_subsets_are_flagged_without_pages() {
        let c = corpus();
        let cfg = L2qConfig::default();
        let o = l2q_aspect::RelevanceOracle::from_truth(&c);
        let all: Vec<EntityId> = c.entity_ids().collect();
        let dm = crate::domain_phase::learn_domain(&c, &all, &o, &cfg);
        let seed = Query::new(c.seed_query(EntityId(0)));
        let mut table = CandidateTable::new();
        let fired = [seed.clone()];
        table.refresh(
            &c,
            Some(&dm),
            &[],
            &fired,
            &cfg,
            &mut StopwordCache::new(),
            &mut Vec::new(),
        );
        let pool: Vec<&Query> = table.pool(true).iter().map(|&id| table.query(id)).collect();
        let expected: Vec<&Query> = dm
            .frequent_queries()
            .filter(|q| **q != seed && !crate::selector::subset_of_seed(q, &seed, &c))
            .collect();
        assert!(
            expected.len() < dm.frequent_queries().count(),
            "no seed subset"
        );
        assert_eq!(pool, expected);
    }

    #[test]
    fn interner_assigns_dense_ids_and_finds_them_again() {
        let mut interner: Interner<Query> = Interner::default();
        for i in 0..500u32 {
            let words = [Sym(i), Sym(i + 1)];
            assert_eq!(interner.intern(&words[..], Query::new), (i, true));
        }
        for i in 0..500u32 {
            let q = Query::new(&[Sym(i + 1), Sym(i)]);
            assert_eq!(interner.get(q.words()), Some(i));
            assert_eq!(interner.intern(q.words(), Query::new), (i, false));
        }
        assert_eq!(interner.get(&[Sym(9999)][..]), None);
        assert_eq!(interner.len(), 500);
    }

    #[test]
    fn phrases_count_as_single_words() {
        let c = corpus();
        let mut stops = StopwordCache::new();
        // Any multi-word typed value (e.g. "data mining") must appear as a
        // unigram query if it occurs in some page.
        let mut found_phrase_unigram = false;
        for page in c.pages.iter().take(50) {
            for q in page_queries(&c, page, 1, &mut stops) {
                if q.len() == 1 && c.symbols.resolve(q.words()[0]).contains(' ') {
                    found_phrase_unigram = true;
                }
            }
        }
        assert!(
            found_phrase_unigram,
            "no merged phrase appeared as a unigram"
        );
    }
}
