//! Epoch-versioned snapshot publication.
//!
//! A [`SnapshotPublisher`] owns the write side of the system: it holds
//! the current immutable [`Banks`] snapshot and, for each published
//! delta batch, derives the successor snapshot —
//! incrementally where the configuration allows, by full rebuild
//! otherwise — stamped with a monotonically increasing **epoch**.
//!
//! Publication is atomic and non-blocking for readers: the new snapshot
//! is a fresh `Arc<Banks>`; serving layers swap the pointer (see
//! `banks-server`'s `QueryService::install_snapshot`) while in-flight
//! queries finish on whatever epoch they started with. A failed publish
//! leaves the current snapshot untouched — ops are applied to a scratch
//! clone that is only promoted on success.

use crate::apply::{apply_batch, apply_to_database, OpCounts};
use crate::delta::DeltaBatch;
use crate::error::{IngestError, IngestResult};
use banks_core::{Banks, NodeWeightMode};
use banks_storage::Tokenizer;
use std::collections::VecDeque;
use std::sync::Arc;

/// How many published epochs the history ring keeps (for `/epochs`).
pub(crate) const HISTORY_CAP: usize = 64;

/// Summary of one published epoch.
#[derive(Debug, Clone)]
pub struct EpochInfo {
    /// The epoch this publication produced.
    pub epoch: u64,
    /// Number of delta operations in the batch.
    pub ops: usize,
    /// Per-kind operation counts.
    pub counts: OpCounts,
    /// Graph node count after publication.
    pub nodes: usize,
    /// Graph edge count after publication.
    pub edges: usize,
    /// Whether the snapshot was derived incrementally (vs full rebuild).
    pub incremental: bool,
    /// Caller-supplied publication timestamp (the publisher keeps no
    /// clock of its own; servers pass wall-clock time through).
    pub published_at: Option<String>,
}

/// What a successful publication returns.
#[derive(Debug, Clone)]
pub struct Published {
    /// The new snapshot (also installed as the publisher's current one).
    pub banks: Arc<Banks>,
    /// Its summary.
    pub info: EpochInfo,
}

/// The persistence hook of the write path: called with the validated
/// batch and the epoch it is about to become, **after** the successor
/// snapshot has been derived but **before** it is promoted. An `Err`
/// aborts the publication — the epoch does not advance and readers never
/// see the new snapshot — so a successful publish implies the hook made
/// the batch durable first (`banks-persist` appends a WAL frame and
/// fsyncs here).
pub trait DurabilityHook: Send {
    /// Make `batch` durable as the write that produces `epoch`.
    fn persist_batch(&mut self, epoch: u64, batch: &DeltaBatch) -> Result<(), String>;
}

/// The write side of a BANKS deployment: publishes an epoch-stamped
/// successor snapshot per delta batch. See the module docs.
pub struct SnapshotPublisher {
    current: Arc<Banks>,
    epoch: u64,
    history: VecDeque<EpochInfo>,
    durability: Option<Box<dyn DurabilityHook>>,
}

impl std::fmt::Debug for SnapshotPublisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotPublisher")
            .field("epoch", &self.epoch)
            .field("durable", &self.durability.is_some())
            .finish()
    }
}

impl SnapshotPublisher {
    /// Wrap the initial snapshot as epoch 0.
    pub fn new(banks: Arc<Banks>) -> SnapshotPublisher {
        SnapshotPublisher::with_epoch(banks, 0)
    }

    /// Wrap a snapshot recovered at a known epoch — the crash-recovery
    /// path, where the WAL replay reconstructed the state of epoch `N`
    /// and the next publication must be `N + 1`.
    pub fn with_epoch(banks: Arc<Banks>, epoch: u64) -> SnapshotPublisher {
        SnapshotPublisher {
            current: banks,
            epoch,
            history: VecDeque::new(),
            durability: None,
        }
    }

    /// Install the persistence hook (see [`DurabilityHook`]). At most one
    /// hook is active; installing replaces the previous one.
    pub fn set_durability_hook(&mut self, hook: Box<dyn DurabilityHook>) {
        self.durability = Some(hook);
    }

    /// The current snapshot.
    pub fn current(&self) -> Arc<Banks> {
        Arc::clone(&self.current)
    }

    /// The current epoch (0 until the first publication).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Recently published epochs, oldest first (capped at
    /// `HISTORY_CAP`).
    pub fn history(&self) -> impl Iterator<Item = &EpochInfo> + '_ {
        self.history.iter()
    }

    /// Derive, stamp, and install the successor snapshot for `batch`.
    ///
    /// The whole batch is atomic: ops apply in order to a scratch clone
    /// of the current database, and only a fully successful batch is
    /// promoted. Readers keep resolving against the previous snapshot
    /// for as long as they hold its `Arc`.
    pub fn publish(
        &mut self,
        batch: &DeltaBatch,
        published_at: Option<String>,
    ) -> IngestResult<Published> {
        if batch.is_empty() {
            return Err(IngestError::Parse("empty delta batch".into()));
        }
        let config = self.current.config().clone();
        let mut db = self.current.db().clone();
        let tokenizer = Tokenizer::new();
        let incremental = !matches!(
            config.graph.node_weight,
            NodeWeightMode::AuthorityTransfer { .. }
        );
        let (banks, counts) = if incremental {
            let mut text_index = self.current.text_index().clone();
            let (tuple_graph, stats) = apply_batch(
                &mut db,
                self.current.tuple_graph(),
                &mut text_index,
                batch,
                &config.graph,
                &tokenizer,
            )?;
            (
                Banks::from_parts(db, config, tuple_graph, text_index)?,
                stats.counts,
            )
        } else {
            // Global prestige iteration: mutate the clone, rebuild all
            // derived structures from scratch.
            let changes = apply_to_database(&mut db, batch, None)?;
            (Banks::with_config(db, config)?, changes.counts)
        };

        // Durable-then-publish: the batch survived validation and the
        // successor snapshot exists, but readers cannot see it until the
        // write-ahead hook has made the batch crash-safe. A hook failure
        // aborts with the current snapshot and epoch untouched, so an
        // *acked* ingest is always recoverable.
        if let Some(hook) = self.durability.as_mut() {
            hook.persist_batch(self.epoch + 1, batch)
                .map_err(IngestError::Durability)?;
        }

        self.epoch += 1;
        let info = EpochInfo {
            epoch: self.epoch,
            ops: batch.len(),
            counts,
            nodes: banks.tuple_graph().node_count(),
            edges: banks.tuple_graph().graph().edge_count(),
            incremental,
            published_at,
        };
        self.current = Arc::new(banks);
        if self.history.len() == HISTORY_CAP {
            self.history.pop_front();
        }
        self.history.push_back(info.clone());
        Ok(Published {
            banks: Arc::clone(&self.current),
            info,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::TupleOp;
    use banks_storage::{ColumnType, Database, RelationSchema, Value};

    fn dblp() -> Database {
        let mut db = Database::new("dblp");
        db.create_relation(
            RelationSchema::builder("Author")
                .column("AuthorId", ColumnType::Text)
                .column("AuthorName", ColumnType::Text)
                .primary_key(&["AuthorId"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Paper")
                .column("PaperId", ColumnType::Text)
                .column("PaperName", ColumnType::Text)
                .primary_key(&["PaperId"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Writes")
                .column("AuthorId", ColumnType::Text)
                .column("PaperId", ColumnType::Text)
                .primary_key(&["AuthorId", "PaperId"])
                .foreign_key(&["AuthorId"], "Author")
                .foreign_key(&["PaperId"], "Paper")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert(
            "Author",
            vec![Value::text("MohanC"), Value::text("C. Mohan")],
        )
        .unwrap();
        db.insert(
            "Paper",
            vec![Value::text("P1"), Value::text("Transaction Recovery")],
        )
        .unwrap();
        db.insert("Writes", vec![Value::text("MohanC"), Value::text("P1")])
            .unwrap();
        db
    }

    fn author_batch(id: &str, name: &str, paper: &str) -> DeltaBatch {
        DeltaBatch {
            ops: vec![
                TupleOp::Insert {
                    relation: "Author".into(),
                    values: vec![Value::text(id), Value::text(name)],
                },
                TupleOp::Insert {
                    relation: "Writes".into(),
                    values: vec![Value::text(id), Value::text(paper)],
                },
            ],
        }
    }

    #[test]
    fn publish_advances_epoch_and_serves_new_tuples() {
        let banks = Arc::new(Banks::new(dblp()).unwrap());
        let mut publisher = SnapshotPublisher::new(Arc::clone(&banks));
        assert_eq!(publisher.epoch(), 0);

        let old = publisher.current();
        let published = publisher
            .publish(
                &author_batch("SudarshanS", "S. Sudarshan", "P1"),
                Some("2026-07-30T12:00:00Z".into()),
            )
            .unwrap();
        assert_eq!(published.info.epoch, 1);
        assert!(published.info.incremental);
        assert_eq!(published.info.counts.inserted, 2);
        assert_eq!(
            published.info.published_at.as_deref(),
            Some("2026-07-30T12:00:00Z")
        );

        // The old snapshot is untouched; the new one answers the query.
        assert!(old.search("sudarshan").unwrap().is_empty());
        let answers = published.banks.search("mohan sudarshan").unwrap();
        assert!(!answers.is_empty(), "new author connects through P1");

        // And it matches a from-scratch build of the same database.
        let fresh = Banks::new(published.banks.db().clone()).unwrap();
        let expect = fresh.search("mohan sudarshan").unwrap();
        assert_eq!(answers.len(), expect.len());
        for (a, b) in answers.iter().zip(&expect) {
            assert_eq!(a.tree.signature(), b.tree.signature());
            assert!((a.relevance - b.relevance).abs() < 1e-12);
        }
    }

    #[test]
    fn failed_publish_leaves_snapshot_and_epoch_untouched() {
        let banks = Arc::new(Banks::new(dblp()).unwrap());
        let mut publisher = SnapshotPublisher::new(banks);
        let before = publisher.current();
        let bad = DeltaBatch {
            ops: vec![
                TupleOp::Insert {
                    relation: "Author".into(),
                    values: vec![Value::text("A9"), Value::text("Fine")],
                },
                // Second op dangles — the whole batch must be discarded.
                TupleOp::Insert {
                    relation: "Writes".into(),
                    values: vec![Value::text("A9"), Value::text("no-such-paper")],
                },
            ],
        };
        assert!(publisher.publish(&bad, None).is_err());
        assert_eq!(publisher.epoch(), 0);
        assert!(Arc::ptr_eq(&before, &publisher.current()));
        assert_eq!(publisher.current().db().total_tuples(), 3);
        assert!(
            publisher.publish(&DeltaBatch::default(), None).is_err(),
            "empty batch"
        );
    }

    #[test]
    fn history_records_epochs_in_order() {
        let banks = Arc::new(Banks::new(dblp()).unwrap());
        let mut publisher = SnapshotPublisher::new(banks);
        for i in 0..3 {
            publisher
                .publish(
                    &author_batch(&format!("A{i}"), "Серіал Writer", "P1"),
                    Some(format!("t{i}")),
                )
                .unwrap();
        }
        let epochs: Vec<u64> = publisher.history().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![1, 2, 3]);
        assert_eq!(publisher.epoch(), 3);
        let last = publisher.history().last().unwrap();
        assert_eq!(last.published_at.as_deref(), Some("t2"));
        assert!(last.nodes > 0 && last.edges > 0);
    }

    #[test]
    fn with_epoch_resumes_the_counter() {
        let banks = Arc::new(Banks::new(dblp()).unwrap());
        let mut publisher = SnapshotPublisher::with_epoch(banks, 41);
        assert_eq!(publisher.epoch(), 41);
        let published = publisher
            .publish(&author_batch("A", "Alice Writer", "P1"), None)
            .unwrap();
        assert_eq!(published.info.epoch, 42);
    }

    #[test]
    fn durability_hook_runs_before_promotion_and_can_abort() {
        use std::sync::atomic::{AtomicU64, Ordering};

        struct Recorder {
            seen: Arc<std::sync::Mutex<Vec<(u64, usize)>>>,
            fail_on: Option<u64>,
        }
        impl DurabilityHook for Recorder {
            fn persist_batch(&mut self, epoch: u64, batch: &DeltaBatch) -> Result<(), String> {
                if self.fail_on == Some(epoch) {
                    return Err("disk full".into());
                }
                self.seen.lock().unwrap().push((epoch, batch.len()));
                Ok(())
            }
        }

        let banks = Arc::new(Banks::new(dblp()).unwrap());
        let mut publisher = SnapshotPublisher::new(Arc::clone(&banks));
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        publisher.set_durability_hook(Box::new(Recorder {
            seen: Arc::clone(&seen),
            fail_on: Some(2),
        }));

        // Epoch 1 persists, then publishes.
        publisher
            .publish(&author_batch("A", "Alice Writer", "P1"), None)
            .unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![(1, 2)]);

        // The hook refuses epoch 2: the publish aborts, epoch and
        // snapshot unchanged — the ack is never less durable than the log.
        let before = publisher.current();
        let err = publisher
            .publish(&author_batch("B", "Bob Writer", "P1"), None)
            .unwrap_err();
        assert!(matches!(err, IngestError::Durability(_)), "{err:?}");
        assert!(err.to_string().contains("disk full"));
        assert_eq!(publisher.epoch(), 1);
        assert!(Arc::ptr_eq(&before, &publisher.current()));

        // An *invalid* batch is rejected before the hook ever runs: the
        // WAL must only ever contain validated batches.
        let calls = Arc::new(AtomicU64::new(0));
        struct Counter(Arc<AtomicU64>);
        impl DurabilityHook for Counter {
            fn persist_batch(&mut self, _: u64, _: &DeltaBatch) -> Result<(), String> {
                self.0.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        }
        let mut scoped = SnapshotPublisher::new(banks);
        scoped.set_durability_hook(Box::new(Counter(Arc::clone(&calls))));
        let bad = DeltaBatch {
            ops: vec![TupleOp::Insert {
                relation: "Writes".into(),
                values: vec![Value::text("ghost"), Value::text("nope")],
            }],
        };
        assert!(scoped.publish(&bad, None).is_err());
        assert_eq!(
            calls.load(Ordering::SeqCst),
            0,
            "invalid batch never logged"
        );
    }

    #[test]
    fn authority_transfer_falls_back_to_full_rebuild() {
        let mut config = banks_core::BanksConfig::default();
        config.graph.node_weight = NodeWeightMode::AuthorityTransfer {
            iterations: 5,
            damping: 0.85,
        };
        let banks = Arc::new(Banks::with_config(dblp(), config).unwrap());
        let mut publisher = SnapshotPublisher::new(banks);
        let published = publisher
            .publish(&author_batch("SudarshanS", "S. Sudarshan", "P1"), None)
            .unwrap();
        assert!(!published.info.incremental, "rebuild path taken");
        assert_eq!(published.info.epoch, 1);
        // The rebuilt snapshot matches a from-scratch build.
        let fresh = Banks::with_config(
            published.banks.db().clone(),
            published.banks.config().clone(),
        )
        .unwrap();
        let a = published.banks.search("mohan sudarshan").unwrap();
        let b = fresh.search("mohan sudarshan").unwrap();
        assert_eq!(a.len(), b.len());
    }
}
