//! Server-side ingestion: glue between a [`SnapshotPublisher`] (the
//! write side) and a [`QueryService`] (the read side).
//!
//! One mutex serializes writers; each successful publication is
//! installed into the query service under that same lock, so epochs
//! install in publication order and `GET /epochs` can never observe the
//! service ahead of the publisher.

use crate::service::QueryService;
use banks_ingest::{DeltaBatch, EpochInfo, IngestError, SnapshotPublisher};
use banks_persist::PersistentStore;
use banks_util::json::Json;
use std::sync::{Arc, Mutex};

/// The write path of a running server: owns the publisher, installs
/// published snapshots into the query service.
pub struct IngestEndpoint {
    service: Arc<QueryService>,
    publisher: Mutex<SnapshotPublisher>,
    /// `(current epoch, history)` mirror, refreshed after each publish
    /// under its own short-lived lock so `GET /epochs` never waits for
    /// an in-flight publish (which holds the publisher mutex for a
    /// whole database clone + derive).
    epochs: Mutex<(u64, Vec<EpochInfo>)>,
    /// The durable store behind the publisher's WAL hook, when the
    /// server runs with a data directory: consulted for `/stats`
    /// persistence counters and poked for background compaction after
    /// each publish.
    store: Option<Arc<PersistentStore>>,
}

impl IngestEndpoint {
    /// Wire an ingest endpoint to a freshly built service (both start at
    /// epoch 0, sharing the same snapshot, no durability).
    pub fn new(service: Arc<QueryService>) -> Arc<IngestEndpoint> {
        let publisher = SnapshotPublisher::new(service.banks());
        IngestEndpoint::with_publisher(service, publisher, None)
    }

    /// Wire an ingest endpoint around an explicitly constructed
    /// publisher — the durable path: `banks-cli serve --data-dir` seeds
    /// the publisher at the recovered epoch, installs the store's WAL
    /// hook on it, and passes the store here so `/stats` can report
    /// persistence counters and publications can trigger compaction.
    ///
    /// The publisher's current snapshot and epoch must match the query
    /// service's (both sides are built from the same recovery result).
    pub fn with_publisher(
        service: Arc<QueryService>,
        publisher: SnapshotPublisher,
        store: Option<Arc<PersistentStore>>,
    ) -> Arc<IngestEndpoint> {
        let epoch = publisher.epoch();
        debug_assert_eq!(epoch, service.epoch(), "publisher/service epoch drift");
        Arc::new(IngestEndpoint {
            service,
            publisher: Mutex::new(publisher),
            epochs: Mutex::new((epoch, Vec::new())),
            store,
        })
    }

    /// The durable store, when this endpoint persists its writes.
    pub fn store(&self) -> Option<&Arc<PersistentStore>> {
        self.store.as_ref()
    }

    /// Apply a delta batch: make it durable (when a store is wired —
    /// the publisher's hook appends to the WAL *before* promotion),
    /// publish a successor snapshot, and install it. `published_at` is
    /// the caller-supplied wall-clock timestamp surfaced by `/stats`
    /// and `/epochs`.
    pub fn ingest(
        &self,
        batch: &DeltaBatch,
        published_at: Option<String>,
    ) -> Result<EpochInfo, IngestError> {
        let mut publisher = self.publisher.lock().expect("publisher lock");
        let published = publisher.publish(batch, published_at.clone())?;
        self.service.install_snapshot(
            Arc::clone(&published.banks),
            published.info.epoch,
            published_at,
        );
        *self.epochs.lock().expect("epochs lock") =
            (publisher.epoch(), publisher.history().cloned().collect());
        drop(publisher);
        if let Some(store) = &self.store {
            // Cheap threshold check; actual snapshot rolls happen on the
            // store's background thread, off the ingest path.
            store.maybe_compact(&published.banks, published.info.epoch);
        }
        Ok(published.info)
    }

    /// Current epoch plus the recent publication history, as the
    /// `/epochs` JSON document. Reads the post-publish mirror — O(size
    /// of history), never blocked by a publish in progress.
    pub(crate) fn epochs_json(&self) -> Json {
        let (epoch, history) = {
            let mirror = self.epochs.lock().expect("epochs lock");
            (mirror.0, mirror.1.clone())
        };
        Json::obj([
            ("epoch", Json::Uint(epoch)),
            (
                "history",
                Json::Arr(history.iter().map(epoch_info_json).collect()),
            ),
        ])
    }
}

/// JSON rendering of one [`EpochInfo`] (shared by `/ingest` responses
/// and `/epochs` history entries).
pub(crate) fn epoch_info_json(info: &EpochInfo) -> Json {
    Json::obj([
        ("epoch", Json::Uint(info.epoch)),
        ("ops", Json::Uint(info.ops as u64)),
        ("inserted", Json::Uint(info.counts.inserted as u64)),
        ("updated", Json::Uint(info.counts.updated as u64)),
        ("deleted", Json::Uint(info.counts.deleted as u64)),
        ("nodes", Json::Uint(info.nodes as u64)),
        ("edges", Json::Uint(info.edges as u64)),
        ("incremental", Json::Bool(info.incremental)),
        (
            "published_at",
            match &info.published_at {
                Some(ts) => Json::Str(ts.clone()),
                None => Json::Null,
            },
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{QueryOptions, ServiceConfig};
    use banks_core::Banks;
    use banks_ingest::TupleOp;
    use banks_storage::{ColumnType, Database, RelationSchema, Value};

    fn service() -> Arc<QueryService> {
        let mut db = Database::new("t");
        db.create_relation(
            RelationSchema::builder("Paper")
                .column("Id", ColumnType::Text)
                .column("Title", ColumnType::Text)
                .primary_key(&["Id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert(
            "Paper",
            vec![Value::text("p1"), Value::text("Recovery Concepts")],
        )
        .unwrap();
        Arc::new(QueryService::new(
            Arc::new(Banks::new(db).unwrap()),
            ServiceConfig::default(),
        ))
    }

    #[test]
    fn ingest_installs_into_service_and_records_history() {
        let service = service();
        let endpoint = IngestEndpoint::new(Arc::clone(&service));
        let batch = DeltaBatch {
            ops: vec![TupleOp::Insert {
                relation: "Paper".into(),
                values: vec![Value::text("p2"), Value::text("Transaction Models")],
            }],
        };
        let info = endpoint.ingest(&batch, Some("now".into())).unwrap();
        assert_eq!(info.epoch, 1);
        assert_eq!(service.epoch(), 1);
        assert_eq!(
            service
                .search("models", QueryOptions::default())
                .unwrap()
                .epoch,
            1
        );

        let doc = endpoint.epochs_json().compact();
        assert!(doc.contains(r#""epoch":1"#), "{doc}");
        assert!(doc.contains(r#""published_at":"now""#), "{doc}");

        // A failing batch changes nothing.
        let bad = DeltaBatch {
            ops: vec![TupleOp::Delete {
                relation: "Paper".into(),
                key: vec![Value::text("missing")],
            }],
        };
        assert!(endpoint.ingest(&bad, None).is_err());
        assert_eq!(service.epoch(), 1);
    }
}
