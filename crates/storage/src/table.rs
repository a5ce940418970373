//! A single relation's stored tuples plus its primary-key index: one
//! representation, an optional block store (a bundle's DATA section)
//! under an overlay of the slots changed or appended since open.

use crate::blocks::{decode_lane, encode_lane, lane_candidates, RelationLayout, TupleStore};
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

/// Relation `rel` of the block store a table was opened over.
#[derive(Debug, Clone)]
struct Base {
    store: Arc<dyn TupleStore>,
    rel: u32,
}

impl Base {
    fn layout(&self) -> &RelationLayout {
        self.store.directory().relation(self.rel)
    }
}

/// Storage for one relation: a block store plus an overlay. Deleted
/// slots become tombstones, so rids stay stable.
///
/// * Slots below `base_slots` live in an optional base [`TupleStore`]
///   (a bundle's DATA section, resident or paged). A base read decodes
///   the one slot it needs out of its block and hands the caller the
///   decoded value to own (`Cow::Owned`), so it stays valid whatever a
///   paging store evicts. Base slots changed since open are kept in an
///   overlay map.
/// * Slots from `base_slots` on are appended: a dense slot vector. A
///   table built by inserts has no base (`base_slots` is 0) and uses
///   only this.
///
/// The primary-key index maps the Fx hash of a key to its slot(s) — the
/// key values themselves are **not** duplicated out of the tuples.
/// Lookups hash the probe key and confirm candidates against the stored
/// tuple, so inserts never clone key values and the index costs 12
/// bytes per tuple instead of a cloned `Vec<Value>`. Base rows are
/// indexed by the store's sorted PK lane, with the entries of deleted
/// base rows masked out; the hash index holds appended rows only.
#[derive(Debug, Clone)]
pub struct Table {
    id: RelationId,
    schema: RelationSchema,
    base: Option<Base>,
    /// Slots held by the base store; slots at or above this are appended.
    base_slots: u32,
    /// Slot `base_slots + i` is `appended[i]` (`None` = tombstoned).
    appended: Vec<Option<Tuple>>,
    /// Base slots changed since open (`None` = tombstoned).
    changed: FxHashMap<u32, Option<Tuple>>,
    live: usize,
    /// PK index over appended rows.
    pk_index: PkIndex,
    /// Base PK-lane entries masked out by deletes.
    pk_deleted: FxHashSet<(u64, u32)>,
}

impl Table {
    /// Create an empty table for `schema` with catalog id `id`.
    pub(crate) fn new(id: RelationId, schema: RelationSchema) -> Table {
        Table {
            id,
            schema,
            base: None,
            base_slots: 0,
            appended: Vec::new(),
            changed: FxHashMap::default(),
            live: 0,
            pk_index: PkIndex::default(),
            pk_deleted: FxHashSet::default(),
        }
    }

    /// Put relation `rel` of `store` under this fresh table as its base.
    pub(crate) fn set_base(&mut self, store: Arc<dyn TupleStore>, rel: u32) {
        let base = Base { store, rel };
        self.base_slots = base.layout().slot_count;
        self.live = base.layout().live_count as usize;
        self.base = Some(base);
    }

    /// Slots held by the base store.
    pub(crate) fn base_slots(&self) -> u32 {
        self.base_slots
    }

    /// Base slots whose tuple changed since open.
    pub(crate) fn changed_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.changed.keys().copied()
    }

    /// The base store and this relation's index in it.
    pub(crate) fn base_store(&self) -> Option<(&Arc<dyn TupleStore>, u32)> {
        self.base.as_ref().map(|b| (&b.store, b.rel))
    }

    /// The encoded PK lane of the current rows: the base lane copied as
    /// it is when no keyed row was added or deleted since open, else
    /// rebuilt from its surviving entries plus the appended rows'.
    pub(crate) fn pk_lane(&self) -> StorageResult<Vec<u8>> {
        let base_lane = self
            .base
            .as_ref()
            .map(|b| b.store.directory().pk_lane(b.rel));
        if let Some(lane) =
            base_lane.filter(|_| self.pk_index.is_empty() && self.pk_deleted.is_empty())
        {
            return Ok(lane.to_vec());
        }
        let mut entries = match base_lane {
            Some(lane) => decode_lane(lane)?,
            None => Vec::new(),
        };
        entries.retain(|e| !self.pk_deleted.contains(e));
        for (&hash, slots) in &self.pk_index {
            entries.extend(slots.candidates().iter().map(|&slot| (hash, slot)));
        }
        Ok(encode_lane(entries))
    }

    /// Fx hash of a primary-key value sequence — also the hash stored in
    /// the v3 PK lane, so lane probes and index probes agree. Values
    /// encoded in a block hash alike ([`crate::blocks`]).
    pub(crate) fn pk_hash<T: Hash>(key: impl Iterator<Item = T>) -> u64 {
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

    /// Find the live slot whose primary key equals `key` (hash →
    /// candidate confirmation). The key is borrowed — a foreign key's
    /// columns of the referencing row, say — and appended rows' candidates
    /// are read in place, so a probe of a table built by inserts neither
    /// clones nor allocates. The caller guarantees `key` yields one value
    /// per primary-key column.
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
        let appended = self
            .pk_index
            .get(&hash)
            .map_or(&[][..], PkSlots::candidates);
        if let Some(slot) = appended.iter().copied().find(matches) {
            return Some(slot);
        }
        let base = self.base.as_ref()?;
        lane_candidates(base.store.directory().pk_lane(base.rel), hash)
            .into_iter()
            .filter(|&slot| !self.pk_deleted.contains(&(hash, slot)))
            .find(matches)
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
        self.live
    }

    /// Whether the table holds no live tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of slots ever allocated (live + deleted).
    pub fn slot_count(&self) -> usize {
        self.base_slots as usize + self.appended.len()
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
        let slot = u32::try_from(self.slot_count()).expect("more than u32::MAX tuples");
        self.appended.push(Some(Tuple::new(values)));
        self.live += 1;
        if let Some(hash) = hash {
            pk_map_link(&mut self.pk_index, hash, slot);
        }
        Rid::new(self.id, slot)
    }

    /// Fetch the tuple at `slot`, if live: borrowed when appended or
    /// changed since open, owned when decoded out of its base block.
    pub fn get(&self, slot: u32) -> Option<Cow<'_, Tuple>> {
        if slot >= self.base_slots {
            let appended = self.appended.get((slot - self.base_slots) as usize)?;
            return appended.as_ref().map(Cow::Borrowed);
        }
        if let Some(entry) = self.changed.get(&slot) {
            return entry.as_ref().map(Cow::Borrowed);
        }
        let base = self.base.as_ref()?;
        if !base.layout().is_live(slot) {
            return None;
        }
        let block = base.store.block(base.rel, slot / base.store.block_span());
        block.tuple(slot).map(Cow::Owned)
    }

    /// Is the slot live? Answered without decoding any block.
    pub(crate) fn is_live(&self, slot: u32) -> bool {
        if slot >= self.base_slots {
            let appended = self.appended.get((slot - self.base_slots) as usize);
            return appended.is_some_and(Option::is_some);
        }
        match self.changed.get(&slot) {
            Some(entry) => entry.is_some(),
            None => self.base.as_ref().is_some_and(|b| b.layout().is_live(slot)),
        }
    }

    /// Reverse references of the tuple at `slot` recorded in the base
    /// store, decoded out of its block (empty for an appended slot;
    /// references recorded since open live in
    /// [`crate::Database::referencing`]'s overlay).
    pub(crate) fn base_refs(&self, slot: u32) -> Vec<crate::catalog::BackRef> {
        match &self.base {
            Some(b) if slot < self.base_slots => {
                b.store.block(b.rel, slot / b.store.block_span()).refs(slot)
            }
            _ => Vec::new(),
        }
    }

    /// The live tuple at `slot`, for mutation: an appended slot in place,
    /// a base slot copied into the overlay of changed slots first.
    fn get_mut(&mut self, slot: u32) -> Option<&mut Tuple> {
        if slot >= self.base_slots {
            let appended = self.appended.get_mut((slot - self.base_slots) as usize)?;
            return appended.as_mut();
        }
        if !self.changed.contains_key(&slot) {
            let tuple = self.get(slot)?.into_owned();
            self.changed.insert(slot, Some(tuple));
        }
        self.changed.get_mut(&slot)?.as_mut()
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
        self.live -= 1;
        if slot >= self.base_slots {
            self.appended[(slot - self.base_slots) as usize] = None;
            if let Some(hash) = hash {
                pk_map_unlink(&mut self.pk_index, hash, slot);
            }
        } else {
            self.changed.insert(slot, None);
            if let Some(hash) = hash {
                // Base rows never enter the hash index (PK columns are
                // immutable), so masking the lane entry suffices.
                self.pk_deleted.insert((hash, slot));
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
        let tuple = self
            .get_mut(slot)
            .ok_or_else(|| StorageError::InvalidRid(format!("slot {slot} not live")))?;
        *tuple.get_mut(column).expect("arity checked at insert") = value;
        Ok(())
    }

    /// Iterate over the slot numbers of live tuples, in slot order —
    /// answered from presence information alone, with no block decodes.
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
