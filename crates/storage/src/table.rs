//! A single relation's stored tuples plus its primary-key index.

use crate::blocks::TupleStore;
use crate::error::{StorageError, StorageResult};
use crate::schema::RelationSchema;
use crate::tuple::{RelationId, Rid, Tuple};
use crate::value::Value;
use banks_util::fxhash::{FxFoldHashMap, FxHashMap, FxHashSet, FxHasher};
use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Slots sharing one primary-key hash. 64-bit hashes over at most a few
/// million keys make `Many` astronomically rare, so the common entry
/// stays inline with no per-entry heap allocation.
#[derive(Debug, Clone)]
pub(crate) enum PkSlots {
    /// The typical entry: exactly one slot has this key hash.
    One(u32),
    /// Hash collision between distinct keys (or transiently during a
    /// collision-era delete): all candidate slots.
    Many(Vec<u32>),
}

impl PkSlots {
    pub(crate) fn candidates(&self) -> &[u32] {
        match self {
            PkSlots::One(slot) => std::slice::from_ref(slot),
            PkSlots::Many(slots) => slots,
        }
    }
}

/// Primary-key hash → slot(s). The keys are Fx hashes, whose low bits
/// vary little for the 8-byte ids the generators emit, so the map
/// re-mixes them ([`FxFoldHashMap`]); plain Fx here made every probe walk
/// a collision chain that grew with the table.
pub(crate) type PkIndex = FxFoldHashMap<u64, PkSlots>;

pub(crate) fn pk_map_link(map: &mut PkIndex, hash: u64, slot: u32) {
    match map.entry(hash) {
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(PkSlots::One(slot));
        }
        std::collections::hash_map::Entry::Occupied(mut e) => match e.get_mut() {
            PkSlots::One(existing) => {
                let existing = *existing;
                e.insert(PkSlots::Many(vec![existing, slot]));
            }
            PkSlots::Many(slots) => slots.push(slot),
        },
    }
}

fn pk_map_unlink(map: &mut PkIndex, hash: u64, slot: u32) {
    match map.get_mut(&hash) {
        Some(PkSlots::One(s)) if *s == slot => {
            map.remove(&hash);
        }
        Some(PkSlots::Many(slots)) => {
            slots.retain(|&s| s != slot);
            if let [last] = slots[..] {
                map.insert(hash, PkSlots::One(last));
            }
        }
        _ => {}
    }
}

/// Where a table's tuples live.
///
/// `Eager` is the classic fully-resident slot vector. `Lazy` fronts a
/// [`TupleStore`] (typically `banks-pager`'s block-paged store): base
/// slots page in on demand, and all mutation goes to an overlay keyed by
/// slot, so an ingest epoch touches only the blocks it changes. Reads
/// merge overlay-over-base; a base read decodes the one slot it needs
/// out of the resident block and hands the decoded value to the caller
/// to own (`Cow::Owned`), so it stays valid whatever the cache evicts.
#[derive(Debug, Clone)]
enum Repr {
    Eager {
        slots: Vec<Option<Tuple>>,
        live: usize,
        pk_index: PkIndex,
    },
    Lazy {
        store: Arc<dyn TupleStore>,
        rel: u32,
        /// Slots present in the backing store; slots at or above this
        /// are overlay appends.
        base_slots: u32,
        /// Current slot count (base + appends).
        slot_count: u32,
        live: usize,
        /// Slot → current tuple (`None` = tombstoned). Appended slots
        /// are always here; base slots appear once touched.
        overlay: FxHashMap<u32, Option<Tuple>>,
        /// PK index over overlay-appended rows only.
        pk_overlay: PkIndex,
        /// Base PK-lane entries masked out by deletes.
        pk_deleted: FxHashSet<(u64, u32)>,
    },
}

/// Borrowed view of a lazy table's internals, for the copy-on-write
/// v3 snapshot writer (see [`crate::blocks::encode_database_v3`]).
pub(crate) struct LazyParts<'a> {
    pub store: &'a Arc<dyn TupleStore>,
    pub rel: u32,
    pub base_slots: u32,
    pub slot_count: u32,
    /// Slots with overlay entries (touched base slots + all appends).
    pub overlay_slots: Vec<u32>,
    /// PK entries added since open (appended rows).
    pub pk_added: Vec<(u64, u32)>,
    /// Base PK-lane entries deleted since open.
    pub pk_deleted: &'a FxHashSet<(u64, u32)>,
}

impl LazyParts<'_> {
    /// Has the PK lane changed since open?
    pub(crate) fn pk_dirty(&self) -> bool {
        !self.pk_added.is_empty() || !self.pk_deleted.is_empty()
    }
}

/// Storage for one relation: a slot vector of tuples (deleted slots become
/// `None`, so rids stay stable) and a hash index on the primary key.
///
/// The index maps the Fx hash of a key to its slot(s) — the key values
/// themselves are **not** duplicated out of the tuples. Lookups hash the
/// probe key and confirm candidates against the stored tuple, so inserts
/// and bundle restores never clone key values, and the index
/// costs 12 bytes per tuple instead of a cloned `Vec<Value>`.
///
/// A table opened from a paged bundle is *lazy*: the slot vector stays
/// on disk as fixed-span blocks and pages in on first touch, the PK
/// index is a sorted on-disk lane probed by hash, and mutations land in
/// an overlay (see the private `Repr` enum). Every public accessor
/// behaves identically in both representations.
#[derive(Debug, Clone)]
pub struct Table {
    id: RelationId,
    schema: RelationSchema,
    repr: Repr,
}

impl Table {
    /// Create an empty table for `schema` with catalog id `id`.
    pub(crate) fn new(id: RelationId, schema: RelationSchema) -> Table {
        Table {
            id,
            schema,
            repr: Repr::Eager {
                slots: Vec::new(),
                live: 0,
                pk_index: PkIndex::default(),
            },
        }
    }

    /// Switch a fresh, empty table to the lazy representation over
    /// `store`, which carries this relation at index `rel`.
    pub(crate) fn make_lazy(&mut self, store: Arc<dyn TupleStore>, rel: u32) -> StorageResult<()> {
        match &self.repr {
            Repr::Eager { slots, .. } if slots.is_empty() => {}
            _ => {
                return Err(StorageError::Corrupt(format!(
                    "relation `{}` must be empty to attach a tuple store",
                    self.schema.name
                )))
            }
        }
        let base_slots = store.slot_count(rel);
        let live = store.live_count(rel);
        self.repr = Repr::Lazy {
            store,
            rel,
            base_slots,
            slot_count: base_slots,
            live,
            overlay: FxHashMap::default(),
            pk_overlay: PkIndex::default(),
            pk_deleted: FxHashSet::default(),
        };
        Ok(())
    }

    /// The lazy internals, if this table fronts a tuple store.
    pub(crate) fn lazy_parts(&self) -> Option<LazyParts<'_>> {
        match &self.repr {
            Repr::Eager { .. } => None,
            Repr::Lazy {
                store,
                rel,
                base_slots,
                slot_count,
                overlay,
                pk_overlay,
                pk_deleted,
                ..
            } => Some(LazyParts {
                store,
                rel: *rel,
                base_slots: *base_slots,
                slot_count: *slot_count,
                overlay_slots: overlay.keys().copied().collect(),
                pk_added: pk_overlay
                    .iter()
                    .flat_map(|(&hash, e)| e.candidates().iter().map(move |&s| (hash, s)))
                    .collect(),
                pk_deleted,
            }),
        }
    }

    /// Fx hash of a primary-key value sequence — also the hash stored in
    /// the v3 PK lane, so lane probes and index probes agree.
    pub(crate) fn pk_hash<'v>(key: impl Iterator<Item = &'v Value>) -> u64 {
        let mut h = FxHasher::default();
        for v in key {
            v.hash(&mut h);
        }
        h.finish()
    }

    /// Hash of the primary key embedded in a full tuple's values.
    pub(crate) fn pk_hash_of_row(&self, values: &[Value]) -> u64 {
        Self::pk_hash(self.schema.primary_key.iter().map(|&c| &values[c]))
    }

    /// Does the live tuple at `slot` carry exactly this primary key?
    fn slot_key_matches<'v>(&self, slot: u32, key: impl Iterator<Item = &'v Value>) -> bool {
        let Some(tuple) = self.get(slot) else {
            return false;
        };
        self.schema
            .primary_key
            .iter()
            .zip(key)
            .all(|(&c, k)| &tuple.values()[c] == k)
    }

    /// All slots whose primary-key hash is `hash` (unconfirmed
    /// candidates, overlay-aware).
    pub(crate) fn pk_candidates_by_hash(&self, hash: u64) -> Vec<u32> {
        match &self.repr {
            Repr::Eager { pk_index, .. } => pk_index
                .get(&hash)
                .map(|e| e.candidates().to_vec())
                .unwrap_or_default(),
            Repr::Lazy {
                store,
                rel,
                pk_overlay,
                pk_deleted,
                ..
            } => {
                let mut c = store.pk_candidates(*rel, hash);
                if !pk_deleted.is_empty() {
                    c.retain(|&s| !pk_deleted.contains(&(hash, s)));
                }
                if let Some(e) = pk_overlay.get(&hash) {
                    c.extend_from_slice(e.candidates());
                }
                c
            }
        }
    }

    /// Find the live slot whose primary key equals `key` (hash →
    /// candidate confirmation). The key is borrowed — a foreign key's
    /// columns of the referencing row, say — and on a resident table the
    /// candidates are read in place, so a probe neither clones nor
    /// allocates. The caller guarantees `key` yields one value per
    /// primary-key column.
    pub(crate) fn pk_slot_by<'v, K>(&self, key: K) -> Option<u32>
    where
        K: Iterator<Item = &'v Value> + Clone,
    {
        self.pk_slot_hashed(Self::pk_hash(key.clone()), key)
    }

    /// [`Table::pk_slot_by`] with the key's hash already computed.
    pub(crate) fn pk_slot_hashed<'v, K>(&self, hash: u64, key: K) -> Option<u32>
    where
        K: Iterator<Item = &'v Value> + Clone,
    {
        let matches = |&slot: &u32| self.slot_key_matches(slot, key.clone());
        match &self.repr {
            Repr::Eager { pk_index, .. } => pk_index
                .get(&hash)?
                .candidates()
                .iter()
                .copied()
                .find(matches),
            Repr::Lazy { .. } => self.pk_candidates_by_hash(hash).into_iter().find(matches),
        }
    }

    /// The catalog id of this relation.
    pub fn id(&self) -> RelationId {
        self.id
    }

    /// The relation's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Number of live (non-deleted) tuples.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Eager { live, .. } | Repr::Lazy { live, .. } => *live,
        }
    }

    /// Whether the table holds no live tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of slots ever allocated (live + deleted).
    pub fn slot_count(&self) -> usize {
        match &self.repr {
            Repr::Eager { slots, .. } => slots.len(),
            Repr::Lazy { slot_count, .. } => *slot_count as usize,
        }
    }

    /// Type/arity/nullability-check `values` against the schema.
    pub(crate) fn check_values(&self, values: &[Value]) -> StorageResult<()> {
        if values.len() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                relation: self.schema.name.clone(),
                expected: self.schema.arity(),
                actual: values.len(),
            });
        }
        for (col, value) in self.schema.columns.iter().zip(values) {
            if value.is_null() {
                if !col.nullable {
                    return Err(StorageError::NullViolation {
                        relation: self.schema.name.clone(),
                        column: col.name.clone(),
                    });
                }
                continue;
            }
            if !col.ty.accepts(value) {
                return Err(StorageError::TypeMismatch {
                    relation: self.schema.name.clone(),
                    column: col.name.clone(),
                    expected: col.ty.name().to_string(),
                    actual: value.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Insert a tuple that [`crate::Database::check_insert`] accepted;
    /// `hash` is the primary-key hash it returned.
    pub(crate) fn insert(&mut self, values: Vec<Value>, hash: Option<u64>) -> Rid {
        match &mut self.repr {
            Repr::Eager {
                slots,
                live,
                pk_index,
            } => {
                let slot = u32::try_from(slots.len()).expect("more than u32::MAX tuples");
                slots.push(Some(Tuple::new(values)));
                *live += 1;
                if let Some(hash) = hash {
                    pk_map_link(pk_index, hash, slot);
                }
                Rid::new(self.id, slot)
            }
            Repr::Lazy {
                slot_count,
                live,
                overlay,
                pk_overlay,
                ..
            } => {
                let slot = *slot_count;
                *slot_count = slot.checked_add(1).expect("more than u32::MAX tuples");
                overlay.insert(slot, Some(Tuple::new(values)));
                *live += 1;
                if let Some(hash) = hash {
                    pk_map_link(pk_overlay, hash, slot);
                }
                Rid::new(self.id, slot)
            }
        }
    }

    /// Fetch the tuple at `slot`, if live: borrowed from an eager table
    /// or a lazy table's overlay, owned when a lazy table decodes it out
    /// of its resident block.
    pub fn get(&self, slot: u32) -> Option<Cow<'_, Tuple>> {
        match &self.repr {
            Repr::Eager { slots, .. } => slots
                .get(slot as usize)
                .and_then(|t| t.as_ref())
                .map(Cow::Borrowed),
            Repr::Lazy {
                store,
                rel,
                base_slots,
                overlay,
                ..
            } => {
                if let Some(entry) = overlay.get(&slot) {
                    return entry.as_ref().map(Cow::Borrowed);
                }
                if slot >= *base_slots || !store.is_live(*rel, slot) {
                    return None;
                }
                let block = store.block(*rel, slot / store.block_span());
                block.tuple(slot).map(Cow::Owned)
            }
        }
    }

    /// Is the slot live? Answered without decoding any block.
    pub(crate) fn is_live(&self, slot: u32) -> bool {
        match &self.repr {
            Repr::Eager { slots, .. } => slots.get(slot as usize).is_some_and(|t| t.is_some()),
            Repr::Lazy {
                store,
                rel,
                base_slots,
                overlay,
                ..
            } => match overlay.get(&slot) {
                Some(entry) => entry.is_some(),
                None => slot < *base_slots && store.is_live(*rel, slot),
            },
        }
    }

    /// Reverse references of the tuple at `slot` recorded in the backing
    /// store of a lazy table, decoded out of its block (empty for an
    /// eager table or an appended slot; overlay handling lives in
    /// [`crate::Database::referencing`]).
    pub(crate) fn base_refs(&self, slot: u32) -> Vec<crate::catalog::BackRef> {
        match &self.repr {
            Repr::Lazy {
                store,
                rel,
                base_slots,
                ..
            } if slot < *base_slots => store.block(*rel, slot / store.block_span()).refs(slot),
            _ => Vec::new(),
        }
    }

    /// Look up a tuple by its full primary-key value.
    pub fn lookup_pk(&self, key: &[Value]) -> Option<Rid> {
        if key.len() != self.schema.primary_key.len() || key.is_empty() {
            return None;
        }
        self.pk_slot_by(key.iter())
            .map(|slot| Rid::new(self.id, slot))
    }

    /// Delete the tuple at `slot`. Returns the removed tuple.
    ///
    /// The slot is tombstoned, keeping every other rid stable.
    pub(crate) fn delete(&mut self, slot: u32) -> StorageResult<Tuple> {
        if (slot as usize) >= self.slot_count() {
            return Err(StorageError::InvalidRid(format!(
                "slot {slot} out of range"
            )));
        }
        let tuple = self
            .get(slot)
            .map(Cow::into_owned)
            .ok_or_else(|| StorageError::InvalidRid(format!("slot {slot} already deleted")))?;
        let hash = self
            .schema
            .has_primary_key()
            .then(|| self.pk_hash_of_row(tuple.values()));
        match &mut self.repr {
            Repr::Eager {
                slots,
                live,
                pk_index,
            } => {
                slots[slot as usize] = None;
                *live -= 1;
                if let Some(hash) = hash {
                    pk_map_unlink(pk_index, hash, slot);
                }
            }
            Repr::Lazy {
                base_slots,
                live,
                overlay,
                pk_overlay,
                pk_deleted,
                ..
            } => {
                overlay.insert(slot, None);
                *live -= 1;
                if let Some(hash) = hash {
                    if slot >= *base_slots {
                        pk_map_unlink(pk_overlay, hash, slot);
                    } else {
                        // Base rows never enter the overlay PK index
                        // (PK columns are immutable), so masking the
                        // lane entry suffices.
                        pk_deleted.insert((hash, slot));
                    }
                }
            }
        }
        Ok(tuple)
    }

    /// Update one column of the tuple at `slot`.
    ///
    /// Primary-key columns cannot be updated (delete + insert instead);
    /// this keeps the pk index and any foreign keys pointing here valid.
    pub(crate) fn update(&mut self, slot: u32, column: usize, value: Value) -> StorageResult<()> {
        if self.schema.primary_key.contains(&column) {
            return Err(StorageError::InvalidSchema(format!(
                "cannot update primary-key column {column} of `{}`",
                self.schema.name
            )));
        }
        let col = self
            .schema
            .columns
            .get(column)
            .ok_or_else(|| StorageError::UnknownColumn {
                relation: self.schema.name.clone(),
                column: format!("#{column}"),
            })?
            .clone();
        if value.is_null() && !col.nullable {
            return Err(StorageError::NullViolation {
                relation: self.schema.name.clone(),
                column: col.name,
            });
        }
        if !value.is_null() && !col.ty.accepts(&value) {
            return Err(StorageError::TypeMismatch {
                relation: self.schema.name.clone(),
                column: col.name,
                expected: col.ty.name().to_string(),
                actual: value.to_string(),
            });
        }
        match &mut self.repr {
            Repr::Eager { slots, .. } => {
                let tuple = slots
                    .get_mut(slot as usize)
                    .and_then(|t| t.as_mut())
                    .ok_or_else(|| StorageError::InvalidRid(format!("slot {slot} not live")))?;
                *tuple.get_mut(column).expect("arity checked at insert") = value;
                Ok(())
            }
            Repr::Lazy { .. } => {
                let mut tuple = self
                    .get(slot)
                    .map(Cow::into_owned)
                    .ok_or_else(|| StorageError::InvalidRid(format!("slot {slot} not live")))?;
                *tuple.get_mut(column).expect("arity checked at insert") = value;
                let Repr::Lazy { overlay, .. } = &mut self.repr else {
                    unreachable!("matched above")
                };
                overlay.insert(slot, Some(tuple));
                Ok(())
            }
        }
    }

    /// Restore a deserialized slot vector wholesale, **preserving slot
    /// numbers** (deleted slots stay `None`), and rebuild the live count
    /// and primary-key index. This is the full bundle load path: rids
    /// recorded in the bundle's graph and text-index sections stay
    /// valid only if every tuple lands in its original slot, so the
    /// normal [`Table::insert`] (which compacts) cannot be used.
    ///
    /// Tuples are arity-checked (a short tuple would make later column
    /// access panic) and the primary-key index must come out
    /// collision-free; a violation means the serialized bytes were not
    /// produced from a consistent table and is reported as
    /// [`StorageError::Corrupt`]. Deep per-value type checks are skipped
    /// on this path (debug builds still run them): the v3 DATA section is
    /// checksummed and written by [`crate::blocks::encode_database_v3`]
    /// from an already-validated table, and restore latency is the whole
    /// point of snapshot bundles.
    pub(crate) fn restore_slots(&mut self, slots: Vec<Option<Tuple>>) -> StorageResult<()> {
        debug_assert!(
            matches!(&self.repr, Repr::Eager { slots, .. } if slots.is_empty()),
            "restore into a fresh table only"
        );
        let mut live = 0usize;
        let mut pk_index = PkIndex::default();
        pk_index.reserve(if self.schema.has_primary_key() {
            slots.len()
        } else {
            0
        });
        for (slot, tuple) in slots.iter().enumerate() {
            let Some(tuple) = tuple else { continue };
            if tuple.arity() != self.schema.arity() {
                return Err(StorageError::Corrupt(format!(
                    "restored tuple in `{}` has arity {}, schema says {}",
                    self.schema.name,
                    tuple.arity(),
                    self.schema.arity()
                )));
            }
            #[cfg(debug_assertions)]
            self.check_values(tuple.values())
                .map_err(|e| StorageError::Corrupt(format!("restored tuple invalid: {e}")))?;
            live += 1;
            if self.schema.has_primary_key() {
                let hash =
                    Self::pk_hash(self.schema.primary_key.iter().map(|&c| &tuple.values()[c]));
                let clash = match pk_index.entry(hash) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(PkSlots::One(slot as u32));
                        false
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        // Same hash: a true duplicate key is corruption;
                        // a mere collision between distinct keys widens
                        // the entry. Confirm against the earlier tuples.
                        let duplicate = e.get().candidates().iter().any(|&earlier| {
                            let other = slots[earlier as usize]
                                .as_ref()
                                .expect("indexed slots are live");
                            self.schema
                                .primary_key
                                .iter()
                                .all(|&c| other.values()[c] == tuple.values()[c])
                        });
                        if !duplicate {
                            match e.get_mut() {
                                PkSlots::One(existing) => {
                                    let existing = *existing;
                                    e.insert(PkSlots::Many(vec![existing, slot as u32]));
                                }
                                PkSlots::Many(list) => list.push(slot as u32),
                            }
                        }
                        duplicate
                    }
                };
                if clash {
                    return Err(StorageError::Corrupt(format!(
                        "duplicate primary key in restored relation `{}`",
                        self.schema.name
                    )));
                }
            }
        }
        self.repr = Repr::Eager {
            slots,
            live,
            pk_index,
        };
        Ok(())
    }

    /// Iterate over the slot numbers of live tuples, in slot order —
    /// answered from presence information alone, with no block decodes
    /// on a lazy table.
    pub fn live_slots(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.slot_count() as u32).filter(move |&slot| self.is_live(slot))
    }

    /// Iterate over live tuples, each as [`Table::get`] returns it.
    pub fn scan(&self) -> impl Iterator<Item = (Rid, Cow<'_, Tuple>)> + '_ {
        let id = self.id;
        (0..self.slot_count() as u32)
            .filter_map(move |slot| self.get(slot).map(|t| (Rid::new(id, slot), t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::Database;

    fn author_table() -> Table {
        let schema = RelationSchema::builder("Author")
            .column("AuthorId", ColumnType::Text)
            .column("AuthorName", ColumnType::Text)
            .nullable_column("HIndex", ColumnType::Int)
            .primary_key(&["AuthorId"])
            .build()
            .unwrap();
        Table::new(RelationId(0), schema)
    }

    /// Insert under the rules every insert follows
    /// ([`Database::check_insert`]), on a catalog of just this table.
    fn insert(t: &mut Table, values: Vec<Value>) -> StorageResult<Rid> {
        let mut catalog = Database::new("t");
        catalog.create_relation(t.schema().clone()).unwrap();
        let checked = catalog.check_insert(RelationId(0), &values, |_, hash, columns, row| {
            t.pk_slot_hashed(hash, columns.iter().map(|&c| &row[c]))
        })?;
        Ok(t.insert(values, checked.pk_hash))
    }

    fn row(id: &str, name: &str) -> Vec<Value> {
        vec![Value::text(id), Value::text(name), Value::Null]
    }

    #[test]
    fn insert_scan_roundtrip() {
        let mut t = author_table();
        let r1 = insert(&mut t, row("SoumenC", "Soumen Chakrabarti")).unwrap();
        let r2 = insert(&mut t, row("SunitaS", "Sunita Sarawagi")).unwrap();
        assert_eq!(t.len(), 2);
        let scanned: Vec<Rid> = t.scan().map(|(rid, _)| rid).collect();
        assert_eq!(scanned, vec![r1, r2]);
    }

    #[test]
    fn pk_lookup() {
        let mut t = author_table();
        let rid = insert(&mut t, row("ByronD", "Byron Dom")).unwrap();
        assert_eq!(t.lookup_pk(&[Value::text("ByronD")]), Some(rid));
        assert_eq!(t.lookup_pk(&[Value::text("nobody")]), None);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = author_table();
        insert(&mut t, row("A", "First")).unwrap();
        let err = insert(&mut t, row("A", "Second")).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey { .. }));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn arity_and_type_enforced() {
        let mut t = author_table();
        assert!(matches!(
            insert(&mut t, vec![Value::text("A")]).unwrap_err(),
            StorageError::ArityMismatch { .. }
        ));
        assert!(matches!(
            insert(&mut t, vec![Value::Int(1), Value::text("x"), Value::Null]).unwrap_err(),
            StorageError::TypeMismatch { .. }
        ));
        assert!(matches!(
            insert(&mut t, vec![Value::Null, Value::text("x"), Value::Null]).unwrap_err(),
            StorageError::NullViolation { .. }
        ));
    }

    #[test]
    fn delete_keeps_rids_stable_and_frees_key() {
        let mut t = author_table();
        let r1 = insert(&mut t, row("A", "First")).unwrap();
        let r2 = insert(&mut t, row("B", "Second")).unwrap();
        t.delete(r1.slot).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.get(r1.slot).is_none());
        assert!(t.get(r2.slot).is_some());
        // Key is free again and new insert gets a fresh slot.
        let r3 = insert(&mut t, row("A", "Third")).unwrap();
        assert_ne!(r3.slot, r1.slot);
        // Double delete errors.
        assert!(t.delete(r1.slot).is_err());
    }

    #[test]
    fn update_non_key_column() {
        let mut t = author_table();
        let r = insert(&mut t, row("A", "First")).unwrap();
        t.update(r.slot, 2, Value::Int(42)).unwrap();
        assert_eq!(
            t.get(r.slot).unwrap().values().get(2),
            Some(&Value::Int(42))
        );
        // pk column update rejected
        assert!(t.update(r.slot, 0, Value::text("B")).is_err());
        // type still enforced
        assert!(t.update(r.slot, 2, Value::text("nope")).is_err());
    }

    #[test]
    fn table_without_pk_allows_duplicates() {
        let schema = RelationSchema::builder("Writes")
            .column("AuthorId", ColumnType::Text)
            .column("PaperId", ColumnType::Text)
            .build()
            .unwrap();
        let mut t = Table::new(RelationId(1), schema);
        insert(&mut t, vec![Value::text("a"), Value::text("p")]).unwrap();
        insert(&mut t, vec![Value::text("a"), Value::text("p")]).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.lookup_pk(&[]).is_none());
    }

    #[test]
    fn live_slots_skips_tombstones() {
        let mut t = author_table();
        for (id, name) in [("A", "a"), ("B", "b"), ("C", "c")] {
            insert(&mut t, row(id, name)).unwrap();
        }
        t.delete(1).unwrap();
        assert_eq!(t.live_slots().collect::<Vec<_>>(), vec![0, 2]);
        assert!(t.is_live(0) && !t.is_live(1) && t.is_live(2));
        assert!(!t.is_live(99));
    }
}
