//! Portable (JSON) serialization of a learned [`DomainModel`].
//!
//! The domain phase "is only executed once" per domain — in production the
//! learned template utilities are an artifact worth persisting and
//! shipping. Symbols and type ids are process-local, so the portable form
//! stores *strings*: queries as word lists and templates as tagged units
//! (`word` / type name). Import re-resolves them against a corpus whose
//! tokenizer/type system matches; unresolvable entries are dropped and
//! counted so callers can detect vocabulary drift.

use crate::domain_phase::{AspectDomainData, DomainModel};
use crate::query::Query;
use crate::template::{Template, Unit};
use l2q_corpus::Corpus;
use l2q_text::Sym;
use serde::{Deserialize, Serialize};

/// One template unit in portable form.
#[derive(Serialize, Deserialize, Clone, Debug, PartialEq, Eq)]
#[serde(rename_all = "snake_case")]
pub enum PortableUnit {
    /// Literal word.
    Word(String),
    /// Type name, e.g. `topic`.
    Type(String),
}

/// The portable form of a [`DomainModel`].
#[derive(Serialize, Deserialize, Clone, Debug)]
pub struct PortableDomainModel {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Aspect names in id order (must match the importing corpus).
    pub aspects: Vec<String>,
    /// Queries as word lists (canonical order).
    pub queries: Vec<Vec<String>>,
    /// Templates as unit lists.
    pub templates: Vec<Vec<PortableUnit>>,
    /// Entity support per query.
    pub support: Vec<u32>,
    /// Frequent query indices.
    pub frequent: Vec<u32>,
    /// Per-aspect data (same shapes as [`AspectDomainData`]).
    pub per_aspect: Vec<AspectDomainData>,
    /// Y* template recall.
    pub template_recall_star: Vec<f64>,
    /// Number of domain entities the model was learned from.
    pub n_domain_entities: usize,
}

/// Errors importing a portable model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImportError {
    /// Unknown format version.
    Version(u32),
    /// The JSON was malformed.
    Json(String),
    /// The aspect list does not match the corpus.
    AspectMismatch,
    /// A word did not resolve against the corpus vocabulary, in a context
    /// where dropping it would change harvest outcomes (fired queries are
    /// part of the context Φ and cannot be dropped like domain entries).
    Vocabulary(String),
    /// Structurally invalid data (bad page/entity id, malformed float
    /// bits, inconsistent step records).
    Corrupt(String),
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Version(v) => write!(f, "unsupported portable-model version {v}"),
            ImportError::Json(m) => write!(f, "malformed portable model: {m}"),
            ImportError::AspectMismatch => write!(f, "aspect list does not match the corpus"),
            ImportError::Vocabulary(w) => write!(f, "word '{w}' not in the corpus vocabulary"),
            ImportError::Corrupt(m) => write!(f, "corrupt portable state: {m}"),
        }
    }
}

impl std::error::Error for ImportError {}

/// Statistics of an import (how much vocabulary resolved).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportStats {
    /// Queries whose every word resolved.
    pub queries_resolved: usize,
    /// Queries dropped (unknown words).
    pub queries_dropped: usize,
    /// Templates whose every unit resolved.
    pub templates_resolved: usize,
    /// Templates dropped.
    pub templates_dropped: usize,
}

impl DomainModel {
    /// Export to the portable form (strings only).
    pub fn to_portable(&self, corpus: &Corpus) -> PortableDomainModel {
        PortableDomainModel {
            version: 1,
            aspects: corpus
                .aspect_names
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            queries: self
                .queries_raw()
                .iter()
                .map(|q| {
                    q.words()
                        .iter()
                        .map(|&w| corpus.symbols.resolve(w).to_owned())
                        .collect()
                })
                .collect(),
            templates: self
                .templates_raw()
                .iter()
                .map(|t| {
                    t.units()
                        .iter()
                        .map(|u| match u {
                            Unit::Word(w) => {
                                PortableUnit::Word(corpus.symbols.resolve(*w).to_owned())
                            }
                            Unit::Type(ty) => PortableUnit::Type(corpus.types.name(*ty).to_owned()),
                        })
                        .collect()
                })
                .collect(),
            support: self.support_raw().to_vec(),
            frequent: self.frequent_raw().to_vec(),
            per_aspect: self.per_aspect_raw().to_vec(),
            template_recall_star: self.template_recall_star_raw().to_vec(),
            n_domain_entities: self.domain_entity_count(),
        }
    }

    /// Export as pretty JSON.
    pub fn to_json(&self, corpus: &Corpus) -> String {
        serde_json::to_string_pretty(&self.to_portable(corpus)).expect("serializable model")
    }

    /// Import from the portable form, resolving strings against `corpus`.
    ///
    /// Entries whose vocabulary does not resolve are dropped (with their
    /// per-aspect rows) and counted in the returned [`ImportStats`].
    pub fn from_portable(
        portable: &PortableDomainModel,
        corpus: &Corpus,
    ) -> Result<(DomainModel, ImportStats), ImportError> {
        if portable.version != 1 {
            return Err(ImportError::Version(portable.version));
        }
        let corpus_aspects: Vec<String> = corpus
            .aspect_names
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        if portable.aspects != corpus_aspects {
            return Err(ImportError::AspectMismatch);
        }

        let mut stats = ImportStats::default();

        // Resolve queries; remember the surviving original indices.
        let mut queries = Vec::new();
        let mut kept_q: Vec<usize> = Vec::new();
        for (i, words) in portable.queries.iter().enumerate() {
            let syms: Option<Vec<Sym>> = words.iter().map(|w| corpus.symbols.get(w)).collect();
            match syms {
                Some(s) if !s.is_empty() => {
                    queries.push(Query::new(&s));
                    kept_q.push(i);
                    stats.queries_resolved += 1;
                }
                _ => stats.queries_dropped += 1,
            }
        }

        let mut templates = Vec::new();
        let mut kept_t: Vec<usize> = Vec::new();
        for (i, units) in portable.templates.iter().enumerate() {
            let resolved: Option<Vec<Unit>> = units
                .iter()
                .map(|u| match u {
                    PortableUnit::Word(w) => corpus.symbols.get(w).map(Unit::Word),
                    PortableUnit::Type(ty) => corpus.types.get(ty).map(Unit::Type),
                })
                .collect();
            match resolved {
                Some(units) if !units.is_empty() => {
                    templates.push(Template::new(&units));
                    kept_t.push(i);
                    stats.templates_resolved += 1;
                }
                _ => stats.templates_dropped += 1,
            }
        }

        let support: Vec<u32> = kept_q.iter().map(|&i| portable.support[i]).collect();
        let old_to_new_q: std::collections::HashMap<usize, u32> = kept_q
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new as u32))
            .collect();
        let frequent: Vec<u32> = portable
            .frequent
            .iter()
            .filter_map(|&old| old_to_new_q.get(&(old as usize)).copied())
            .collect();

        let per_aspect: Vec<AspectDomainData> = portable
            .per_aspect
            .iter()
            .map(|d| AspectDomainData {
                query_precision: kept_q.iter().map(|&i| d.query_precision[i]).collect(),
                query_recall: kept_q.iter().map(|&i| d.query_recall[i]).collect(),
                template_precision: kept_t.iter().map(|&i| d.template_precision[i]).collect(),
                template_recall: kept_t.iter().map(|&i| d.template_recall[i]).collect(),
                template_harvest: kept_t.iter().map(|&i| d.template_harvest[i]).collect(),
            })
            .collect();
        let template_recall_star: Vec<f64> = kept_t
            .iter()
            .map(|&i| portable.template_recall_star[i])
            .collect();

        Ok((
            DomainModel::from_parts(
                corpus,
                queries,
                templates,
                support,
                frequent,
                per_aspect,
                template_recall_star,
                portable.n_domain_entities,
            ),
            stats,
        ))
    }

    /// Import from JSON.
    pub fn from_json(
        json: &str,
        corpus: &Corpus,
    ) -> Result<(DomainModel, ImportStats), ImportError> {
        let portable: PortableDomainModel =
            serde_json::from_str(json).map_err(|e| ImportError::Json(e.to_string()))?;
        Self::from_portable(&portable, corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::L2qConfig;
    use crate::domain_phase::learn_domain;
    use l2q_aspect::RelevanceOracle;
    use l2q_corpus::{generate, researchers_domain, CorpusConfig, EntityId};

    fn setup() -> (Corpus, DomainModel) {
        let corpus = generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap();
        let oracle = RelevanceOracle::from_truth(&corpus);
        let entities: Vec<EntityId> = corpus.entity_ids().take(4).collect();
        let dm = learn_domain(&corpus, &entities, &oracle, &L2qConfig::default());
        (corpus, dm)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (corpus, dm) = setup();
        let json = dm.to_json(&corpus);
        let (restored, stats) = DomainModel::from_json(&json, &corpus).unwrap();
        assert_eq!(stats.queries_dropped, 0);
        assert_eq!(stats.templates_dropped, 0);
        assert_eq!(restored.query_count(), dm.query_count());
        assert_eq!(restored.template_count(), dm.template_count());
        assert_eq!(restored.domain_entity_count(), dm.domain_entity_count());

        // Spot-check utilities survive for every frequent query/template.
        let aspect = corpus.aspect_by_name("RESEARCH").unwrap();
        for q in dm.frequent_queries() {
            let a = dm.query_utility(aspect, q).unwrap();
            let b = restored.query_utility(aspect, q).unwrap();
            // JSON float round-trips can lose the last ulp.
            assert!((a.precision - b.precision).abs() < 1e-12);
            assert!((a.recall - b.recall).abs() < 1e-12);
        }
        let best_a = dm.best_queries(aspect, true, 5);
        let best_b = restored.best_queries(aspect, true, 5);
        assert_eq!(best_a, best_b);
    }

    #[test]
    fn import_rejects_wrong_version_and_aspects() {
        let (corpus, dm) = setup();
        let mut portable = dm.to_portable(&corpus);
        portable.version = 99;
        assert_eq!(
            DomainModel::from_portable(&portable, &corpus).unwrap_err(),
            ImportError::Version(99)
        );

        let mut portable = dm.to_portable(&corpus);
        portable.aspects[0] = "SOMETHING".into();
        assert_eq!(
            DomainModel::from_portable(&portable, &corpus).unwrap_err(),
            ImportError::AspectMismatch
        );

        assert!(matches!(
            DomainModel::from_json("not json", &corpus),
            Err(ImportError::Json(_))
        ));
    }

    /// The deployment scenario the portable form exists for: a model
    /// learned on one crawl is imported against a later crawl whose
    /// vocabulary has drifted (same domain spec → same aspects and type
    /// system, different generated entities → different interned words).
    /// Import must never panic: entries that no longer resolve are
    /// dropped and counted, everything else stays usable.
    #[test]
    fn cross_corpus_vocabulary_drift_drops_and_counts() {
        let (corpus_a, dm) = setup();
        let json = dm.to_json(&corpus_a);

        let mut total_dropped = 0usize;
        for seed in [7u64, 99, 12345] {
            let drifted = generate(
                &researchers_domain(),
                &CorpusConfig {
                    seed,
                    n_entities: 6, // fewer entities → smaller interned vocabulary
                    ..CorpusConfig::tiny()
                },
            )
            .unwrap();
            let (restored, stats) = DomainModel::from_json(&json, &drifted)
                .unwrap_or_else(|e| panic!("seed {seed}: import must not fail: {e}"));

            // Every exported entry is accounted for: resolved or dropped.
            assert_eq!(
                stats.queries_resolved + stats.queries_dropped,
                dm.query_count(),
                "seed {seed}: query accounting"
            );
            assert_eq!(
                stats.templates_resolved + stats.templates_dropped,
                dm.template_count(),
                "seed {seed}: template accounting"
            );
            assert_eq!(restored.query_count(), stats.queries_resolved);
            assert_eq!(restored.template_count(), stats.templates_resolved);
            // Seeds share generator vocabulary pools, so drift is partial:
            // shared pools always leave something resolvable.
            assert!(
                stats.queries_resolved > 0 || stats.templates_resolved > 0,
                "seed {seed}: shared pools should leave something resolvable"
            );
            total_dropped += stats.queries_dropped + stats.templates_dropped;

            // The surviving model is consistent: every remaining query has
            // utilities for every aspect, and ranking it does not panic.
            for aspect in drifted.aspects() {
                for q in restored.queries_raw().to_vec() {
                    assert!(restored.query_utility(aspect, &q).is_some());
                }
                let _ = restored.best_queries(aspect, true, 5);
            }
        }
        assert!(
            total_dropped > 0,
            "entity-name drift across three seeds must drop something"
        );
    }

    #[test]
    fn unknown_vocabulary_is_dropped_and_counted() {
        let (corpus, dm) = setup();
        let mut portable = dm.to_portable(&corpus);
        let before = portable.queries.len();
        portable.queries.push(vec!["zzz_never_interned".into()]);
        portable.support.push(1);
        for d in &mut portable.per_aspect {
            d.query_precision.push(0.5);
            d.query_recall.push(0.5);
        }
        let (restored, stats) = DomainModel::from_portable(&portable, &corpus).unwrap();
        assert_eq!(stats.queries_dropped, 1);
        assert_eq!(restored.query_count(), before);
    }
}
