//! The database catalog: a set of relations plus cross-relation link
//! bookkeeping (foreign-key resolution in both directions).
//!
//! The backward direction — "which tuples reference this one?" — powers two
//! core pieces of BANKS: the backward-edge weights / node prestige of §2.2
//! (both derived from indegree) and the "browse a primary key backwards"
//! feature of §4.

use crate::blocks::{
    checksum64, decode_lane, encode_block, encode_lane, RelationPayload, TupleStore,
    TupleStoreStats,
};
use crate::error::{StorageError, StorageResult};
use crate::schema::{schema_from_text, RelationSchema};
use crate::table::Table;
use crate::tuple::{RelationId, Rid, Tuple};
use crate::value::Value;
use banks_util::fxhash::{FxHashMap, FxHashSet};
use std::sync::Arc;

/// A recorded reverse reference: tuple `from` references the indexed tuple
/// through foreign key `fk_index` of `from`'s relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackRef {
    /// The referencing tuple.
    pub from: Rid,
    /// Which foreign key of `from`'s relation produced the reference.
    pub fk_index: usize,
}

/// The reverse-reference index: fully resident, or a view over a
/// [`TupleStore`]'s per-block back-reference sublanes.
///
/// In the lazy representation a target's list is read straight out of
/// its tuple block until the first mutation touches it, at which point
/// the full list materializes into the overlay (lists are short — a
/// tuple's indegree — so full-replacement is cheap) and stays
/// authoritative from then on.
#[derive(Debug, Clone)]
enum BackRefsRepr {
    Eager(FxHashMap<Rid, Vec<BackRef>>),
    Lazy {
        store: Arc<dyn TupleStore>,
        overlay: FxHashMap<Rid, Vec<BackRef>>,
    },
}

impl Default for BackRefsRepr {
    fn default() -> BackRefsRepr {
        BackRefsRepr::Eager(FxHashMap::default())
    }
}

/// An in-memory relational database.
#[derive(Debug, Clone, Default)]
pub struct Database {
    name: String,
    tables: Vec<Table>,
    by_name: FxHashMap<String, RelationId>,
    /// rid → tuples referencing it. Maintained on insert/delete;
    /// Fx-hashed — touched on every insert/delete/update and rebuilt
    /// wholesale on a full bundle load. Lazy databases read base
    /// lists out of tuple blocks instead (see [`BackRefsRepr`]).
    back_refs: BackRefsRepr,
    /// Total number of resolved foreign-key links.
    link_count: usize,
    /// `fk_targets[r][i]`: the relation foreign key `i` of relation `r`
    /// references, resolved by name once, at [`Database::create_relation`].
    fk_targets: Vec<Vec<RelationId>>,
}

/// What [`Database::check_insert`] resolved for a row it accepted.
pub(crate) struct CheckedRow {
    /// Each non-null foreign key's index and target.
    pub(crate) links: Vec<(usize, Rid)>,
    /// The row's primary-key hash, when its relation has a key.
    pub(crate) pk_hash: Option<u64>,
}

impl Database {
    /// Create an empty database.
    pub fn new(name: impl Into<String>) -> Database {
        Database {
            name: name.into(),
            ..Database::default()
        }
    }

    /// The database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Register a new relation. Foreign keys must reference relations that
    /// already exist (self-references are allowed).
    pub fn create_relation(&mut self, schema: RelationSchema) -> StorageResult<RelationId> {
        schema.validate()?;
        if self.by_name.contains_key(&schema.name) {
            return Err(StorageError::DuplicateRelation(schema.name));
        }
        for fk in &schema.foreign_keys {
            if fk.ref_relation != schema.name && !self.by_name.contains_key(&fk.ref_relation) {
                return Err(StorageError::UnknownRelation(fk.ref_relation.clone()));
            }
            let target = if fk.ref_relation == schema.name {
                &schema
            } else {
                self.relation(&fk.ref_relation)?.schema()
            };
            if !target.has_primary_key() {
                return Err(StorageError::InvalidSchema(format!(
                    "foreign key from `{}` references `{}` which has no primary key",
                    schema.name, fk.ref_relation
                )));
            }
            if target.primary_key.len() != fk.columns.len() {
                return Err(StorageError::InvalidSchema(format!(
                    "foreign key from `{}` to `{}` has {} columns but the key has {}",
                    schema.name,
                    fk.ref_relation,
                    fk.columns.len(),
                    target.primary_key.len()
                )));
            }
        }
        let id = RelationId(u32::try_from(self.tables.len()).expect("too many relations"));
        let fk_targets = schema
            .foreign_keys
            .iter()
            .map(|fk| match self.by_name.get(&fk.ref_relation) {
                Some(&target) => target,
                None => id, // the self-reference checked above
            })
            .collect();
        self.by_name.insert(schema.name.clone(), id);
        self.tables.push(Table::new(id, schema));
        self.fk_targets.push(fk_targets);
        Ok(id)
    }

    /// An empty database with this one's name and relations — the
    /// catalog alone, no tuples.
    pub fn empty_like(&self) -> StorageResult<Database> {
        let mut db = Database::new(self.name.clone());
        for table in &self.tables {
            db.create_relation(table.schema().clone())?;
        }
        Ok(db)
    }

    /// The relation foreign key `fk_index` of `relation` references.
    fn fk_target_relation(&self, relation: RelationId, fk_index: usize) -> RelationId {
        self.fk_targets[relation.index()][fk_index]
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.tables.len()
    }

    /// Iterate over all tables.
    pub fn relations(&self) -> impl Iterator<Item = &Table> + '_ {
        self.tables.iter()
    }

    /// Resolve a relation name to its id.
    pub fn relation_id(&self, name: &str) -> StorageResult<RelationId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Borrow a table by name.
    pub fn relation(&self, name: &str) -> StorageResult<&Table> {
        let id = self.relation_id(name)?;
        Ok(&self.tables[id.index()])
    }

    /// Borrow a table by id.
    pub fn table(&self, id: RelationId) -> &Table {
        &self.tables[id.index()]
    }

    /// Fetch a tuple by rid.
    pub fn tuple(&self, rid: Rid) -> StorageResult<&Tuple> {
        self.tables
            .get(rid.relation.index())
            .and_then(|t| t.get(rid.slot))
            .ok_or_else(|| StorageError::InvalidRid(rid.to_string()))
    }

    /// Resolve foreign key `fk_index` of a `relation` row holding
    /// `values` under the rule every write follows: `Ok(None)` for a
    /// NULL in a nullable key, an error for a NULL in a non-nullable key
    /// or for a key no row carries. The key is read in place from
    /// `values` and probed with `pk_slot` (see [`Database::check_insert`])
    /// against the target relation fixed at schema time.
    fn fk_link(
        &self,
        relation: RelationId,
        fk_index: usize,
        values: &[Value],
        pk_slot: &impl Fn(RelationId, u64, &[usize], &[Value]) -> Option<u32>,
    ) -> StorageResult<Option<Rid>> {
        let fk = &self.tables[relation.index()].schema().foreign_keys[fk_index];
        let key = fk.columns.iter().map(|&c| &values[c]);
        if key.clone().any(Value::is_null) {
            return match fk.nullable {
                true => Ok(None),
                false => Err(self.null_fk(relation, fk_index)),
            };
        }
        let target = self.fk_target_relation(relation, fk_index);
        match pk_slot(target, Table::pk_hash(key), &fk.columns, values) {
            Some(slot) => Ok(Some(Rid::new(target, slot))),
            None => Err(self.dangling(relation, fk_index, values)),
        }
    }

    /// The primary-key probe of this database's own tables: in place,
    /// no clone, no allocation.
    fn pk_slot(
        &self,
        relation: RelationId,
        hash: u64,
        columns: &[usize],
        row: &[Value],
    ) -> Option<u32> {
        self.tables[relation.index()].pk_slot_hashed(hash, columns.iter().map(|&c| &row[c]))
    }

    /// Where foreign key `fk_index` of a stored `relation` row points,
    /// if anywhere.
    fn fk_target(&self, relation: RelationId, fk_index: usize, values: &[Value]) -> Option<Rid> {
        let pk_slot = |r, h, c: &[usize], v: &[Value]| self.pk_slot(r, h, c, v);
        self.fk_link(relation, fk_index, values, &pk_slot)
            .ok()
            .flatten()
    }

    /// The error for a foreign key of a `relation` row that dangles.
    fn dangling(&self, relation: RelationId, fk_index: usize, values: &[Value]) -> StorageError {
        let schema = self.tables[relation.index()].schema();
        let fk = &schema.foreign_keys[fk_index];
        let key: Vec<&Value> = fk.columns.iter().map(|&c| &values[c]).collect();
        StorageError::ForeignKeyViolation {
            relation: schema.name.clone(),
            referenced: fk.ref_relation.clone(),
            key: format!("{key:?}"),
        }
    }

    /// The error for a NULL in a non-nullable foreign key.
    fn null_fk(&self, relation: RelationId, fk_index: usize) -> StorageError {
        let schema = self.tables[relation.index()].schema();
        StorageError::NullViolation {
            relation: schema.name.clone(),
            column: schema.columns[schema.foreign_keys[fk_index].columns[0]]
                .name
                .clone(),
        }
    }

    /// The rules every insert of a row of relation `id` follows, in this
    /// order and with these errors: arity; each foreign key (a NULL in a
    /// non-nullable key, then a key with no target); types and
    /// nullability ([`Table::check_values`]); a duplicate primary key.
    /// Nothing is mutated.
    ///
    /// `pk_slot(relation, hash, columns, row)` finds the live slot of
    /// `relation` whose primary key is `columns` of `row` (`hash` is its
    /// [`Table::pk_hash`]) — the one thing the two row stores, this
    /// database and [`crate::RowArena`], answer differently.
    pub(crate) fn check_insert(
        &self,
        id: RelationId,
        values: &[Value],
        pk_slot: impl Fn(RelationId, u64, &[usize], &[Value]) -> Option<u32>,
    ) -> StorageResult<CheckedRow> {
        let table = &self.tables[id.index()];
        let schema = table.schema();
        if values.len() != schema.arity() {
            return Err(StorageError::ArityMismatch {
                relation: schema.name.clone(),
                expected: schema.arity(),
                actual: values.len(),
            });
        }
        let mut links = Vec::with_capacity(schema.foreign_keys.len());
        for fk_index in 0..schema.foreign_keys.len() {
            if let Some(target) = self.fk_link(id, fk_index, values, &pk_slot)? {
                links.push((fk_index, target));
            }
        }
        table.check_values(values)?;
        let pk_hash = if schema.has_primary_key() {
            let hash = table.pk_hash_of_row(values);
            if pk_slot(id, hash, &schema.primary_key, values).is_some() {
                return Err(StorageError::DuplicateKey {
                    relation: schema.name.clone(),
                    key: format!("{:?}", schema.key_of(values)),
                });
            }
            Some(hash)
        } else {
            None
        };
        Ok(CheckedRow { links, pk_hash })
    }

    /// Insert a tuple, enforcing foreign-key, schema and primary-key
    /// constraints, and maintaining the reverse-reference index.
    ///
    /// This is where every foreign-key link is resolved, once: each key
    /// is probed in place against its target's primary-key index and the
    /// link is recorded in the reverse-reference index, which the data
    /// graph build then walks (see `banks_core::graph_build`) instead of
    /// resolving the key again.
    pub fn insert(&mut self, relation: &str, values: Vec<Value>) -> StorageResult<Rid> {
        let id = self.relation_id(relation)?;
        let checked = self.check_insert(id, &values, |r, h, c, v| self.pk_slot(r, h, c, v))?;
        let rid = self.tables[id.index()].insert(values, checked.pk_hash);
        for (fk_index, target) in checked.links {
            self.add_back_ref(
                target,
                BackRef {
                    from: rid,
                    fk_index,
                },
            );
        }
        Ok(rid)
    }

    /// Record that `br.from` references `target`.
    fn add_back_ref(&mut self, target: Rid, br: BackRef) {
        match &mut self.back_refs {
            BackRefsRepr::Eager(map) => map.entry(target).or_default().push(br),
            BackRefsRepr::Lazy { store, overlay } => {
                overlay
                    .entry(target)
                    .or_insert_with(|| base_refs_of(&**store, target))
                    .push(br);
            }
        }
        self.link_count += 1;
    }

    /// Drop the reverse reference `(from, fk_index)` from `target`'s
    /// list, if present.
    fn remove_back_ref(&mut self, target: Rid, from: Rid, fk_index: usize) {
        let refs = match &mut self.back_refs {
            BackRefsRepr::Eager(map) => match map.get_mut(&target) {
                Some(refs) => refs,
                None => return,
            },
            BackRefsRepr::Lazy { store, overlay } => overlay
                .entry(target)
                .or_insert_with(|| base_refs_of(&**store, target)),
        };
        if let Some(pos) = refs
            .iter()
            .position(|b| b.from == from && b.fk_index == fk_index)
        {
            refs.swap_remove(pos);
            self.link_count -= 1;
        }
    }

    /// Delete a tuple. Fails (RESTRICT semantics) if other tuples still
    /// reference it.
    pub fn delete(&mut self, rid: Rid) -> StorageResult<Tuple> {
        if !self.referencing(rid).is_empty() {
            return Err(StorageError::ForeignKeyViolation {
                relation: self.table(rid.relation).schema().name.clone(),
                referenced: self.table(rid.relation).schema().name.clone(),
                key: format!("{rid} is still referenced"),
            });
        }
        // Remove this tuple's own outgoing references from the reverse index.
        let values: Vec<Value> = self.tuple(rid)?.values().to_vec();
        for fk_index in 0..self.table(rid.relation).schema().foreign_keys.len() {
            if let Some(target) = self.fk_target(rid.relation, fk_index, &values) {
                self.remove_back_ref(target, rid, fk_index);
            }
        }
        self.tables[rid.relation.index()].delete(rid.slot)
    }

    /// Update one column of the tuple at `rid` to `value`, maintaining
    /// the reverse-reference index when the column participates in a
    /// foreign key. Returns the previous value.
    ///
    /// Primary-key columns cannot be updated (delete + insert instead),
    /// and a new foreign-key value must resolve, exactly as on insert —
    /// the tuple-level write path of live ingestion.
    pub fn update(&mut self, rid: Rid, column: usize, value: Value) -> StorageResult<Value> {
        let old = self.update_columns(rid, &[(column, value)])?;
        Ok(old
            .into_iter()
            .next()
            .expect("one assignment, one old value"))
    }

    /// Update several columns of the tuple at `rid` **as one unit**:
    /// every constraint — including foreign keys spanning multiple
    /// updated columns — is validated against the *final* state before
    /// anything mutates, so a composite-key repoint `(a1,b1) → (a2,b2)`
    /// succeeds even when the intermediate `(a2,b1)` would dangle.
    /// Returns the previous values in assignment order. On error the
    /// database is untouched.
    pub fn update_columns(
        &mut self,
        rid: Rid,
        assignments: &[(usize, Value)],
    ) -> StorageResult<Vec<Value>> {
        let schema = self.table(rid.relation).schema().clone();
        let old_values: Vec<Value> = self.tuple(rid)?.values().to_vec();

        // Column-level validation of every assignment against the
        // schema (range, pk guard, nullability, type), before any write.
        let mut new_values = old_values.clone();
        let mut touched = Vec::with_capacity(assignments.len());
        for &(column, ref value) in assignments {
            let Some(col) = schema.columns.get(column) else {
                return Err(StorageError::UnknownColumn {
                    relation: schema.name.clone(),
                    column: format!("#{column}"),
                });
            };
            if schema.primary_key.contains(&column) {
                return Err(StorageError::InvalidSchema(format!(
                    "cannot update primary-key column {column} of `{}`",
                    schema.name
                )));
            }
            if value.is_null() && !col.nullable {
                return Err(StorageError::NullViolation {
                    relation: schema.name.clone(),
                    column: col.name.clone(),
                });
            }
            if !value.is_null() && !col.ty.accepts(value) {
                return Err(StorageError::TypeMismatch {
                    relation: schema.name.clone(),
                    column: col.name.clone(),
                    expected: col.ty.name().to_string(),
                    actual: value.to_string(),
                });
            }
            new_values[column] = value.clone();
            touched.push(column);
        }

        // Validate and resolve every foreign key touching any updated
        // column against the final values.
        let mut relink: Vec<(usize, Option<Rid>, Option<Rid>)> = Vec::new();
        for (fk_index, fk) in schema.foreign_keys.iter().enumerate() {
            if !fk.columns.iter().any(|c| touched.contains(c)) {
                continue;
            }
            let old_target = self.fk_target(rid.relation, fk_index, &old_values);
            let pk_slot = |r, h, c: &[usize], v: &[Value]| self.pk_slot(r, h, c, v);
            let new_target = self.fk_link(rid.relation, fk_index, &new_values, &pk_slot)?;
            if old_target != new_target {
                relink.push((fk_index, old_target, new_target));
            }
        }

        // All checks passed: write the columns (the table re-checks each
        // one, which now cannot fail) and swap the reverse references.
        for &(column, ref value) in assignments {
            self.tables[rid.relation.index()].update(rid.slot, column, value.clone())?;
        }
        for (fk_index, old_target, new_target) in relink {
            if let Some(target) = old_target {
                self.remove_back_ref(target, rid, fk_index);
            }
            if let Some(target) = new_target {
                self.add_back_ref(
                    target,
                    BackRef {
                        from: rid,
                        fk_index,
                    },
                );
            }
        }
        Ok(assignments
            .iter()
            .map(|&(column, _)| old_values[column].clone())
            .collect())
    }

    /// Restore the deserialized slot vector of `relation` (see
    /// [`Table::restore_slots`]) without touching the link bookkeeping —
    /// callers restore every relation first, then run
    /// [`Database::rebuild_links`] once.
    pub(crate) fn restore_relation_slots(
        &mut self,
        relation: RelationId,
        slots: Vec<Option<Tuple>>,
    ) -> StorageResult<()> {
        self.tables[relation.index()].restore_slots(slots)
    }

    /// Install a deserialized reverse-reference index wholesale — the
    /// full bundle load path. The v3 DATA section serializes the index
    /// instead of re-resolving every foreign key (15K `Vec<Value>` hash
    /// lookups on the small corpus), and thereby preserves the live
    /// system's exact per-target reference order.
    ///
    /// Every rid is bounds/liveness-checked (O(1) each); the tuples
    /// themselves were validated by the slot restore. Each `(from,
    /// fk_index)` must name a real foreign key of `from`'s relation.
    pub(crate) fn install_links(&mut self, links: Vec<(Rid, Vec<BackRef>)>) -> StorageResult<()> {
        let live = |rid: Rid| -> bool {
            self.tables
                .get(rid.relation.index())
                .is_some_and(|t| t.get(rid.slot).is_some())
        };
        let mut total = 0usize;
        for (target, refs) in &links {
            if !live(*target) {
                return Err(StorageError::Corrupt(format!(
                    "restored back-reference target {target} is not a live tuple"
                )));
            }
            for backref in refs {
                if !live(backref.from) {
                    return Err(StorageError::Corrupt(format!(
                        "restored back-reference source {} is not a live tuple",
                        backref.from
                    )));
                }
                let fks = self.tables[backref.from.relation.index()]
                    .schema()
                    .foreign_keys
                    .len();
                if backref.fk_index >= fks {
                    return Err(StorageError::Corrupt(format!(
                        "restored back-reference names foreign key #{} of {}, which has {fks}",
                        backref.fk_index, backref.from
                    )));
                }
                total += 1;
            }
        }
        let mut back_refs = FxHashMap::default();
        back_refs.reserve(links.len());
        for (target, refs) in links {
            if back_refs.insert(target, refs).is_some() {
                // A later duplicate entry would silently shadow the
                // earlier one while `total` counted both — reject the
                // stream instead of installing an index that disagrees
                // with its own link count.
                return Err(StorageError::Corrupt(format!(
                    "restored back-reference target {target} listed twice"
                )));
            }
        }
        self.back_refs = BackRefsRepr::Eager(back_refs);
        self.link_count = total;
        Ok(())
    }

    /// Resolve foreign key `fk_index` of the tuple at `rid`.
    ///
    /// Returns `Ok(None)` when the key is NULL (no link).
    pub fn resolve_fk(&self, rid: Rid, fk_index: usize) -> StorageResult<Option<Rid>> {
        let table = self.table(rid.relation);
        let schema = table.schema();
        if fk_index >= schema.foreign_keys.len() {
            return Err(StorageError::InvalidSchema(format!(
                "relation `{}` has no foreign key #{fk_index}",
                schema.name
            )));
        }
        let tuple = self.tuple(rid)?;
        Ok(self.fk_target(rid.relation, fk_index, tuple.values()))
    }

    /// All tuples referencing `rid` (the backward direction of §4 browsing
    /// and the indegree of §2.2).
    ///
    /// On a lazy database an untouched target's list is read out of its
    /// tuple block, so the borrow is keep-alive-ring licensed (valid for
    /// the next 63 block accesses on this thread); every in-tree caller
    /// consumes it before the next access.
    pub fn referencing(&self, rid: Rid) -> &[BackRef] {
        match &self.back_refs {
            BackRefsRepr::Eager(map) => map.get(&rid).map(|v| v.as_slice()).unwrap_or(&[]),
            BackRefsRepr::Lazy { overlay, .. } => {
                if let Some(refs) = overlay.get(&rid) {
                    return refs;
                }
                self.tables
                    .get(rid.relation.index())
                    .and_then(|t| t.base_refs(rid.slot))
                    .unwrap_or(&[])
            }
        }
    }

    /// Indegree of a tuple: number of references to it (the paper's node
    /// prestige, §2.2: "we set the node prestige to the indegree of the
    /// node").
    pub fn indegree(&self, rid: Rid) -> usize {
        self.referencing(rid).len()
    }

    /// Indegree of `rid` contributed by tuples of `relation` — the
    /// `IN_{R}(v)` term of the paper's backward-edge weight (eq. 1).
    pub fn indegree_from(&self, rid: Rid, relation: RelationId) -> usize {
        self.referencing(rid)
            .iter()
            .filter(|b| b.from.relation == relation)
            .count()
    }

    /// Total live tuples over all relations (graph node count).
    pub fn total_tuples(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum()
    }

    /// Total resolved foreign-key links (half the directed edge count of the
    /// BANKS graph, which adds a backward edge per link).
    pub fn link_count(&self) -> usize {
        self.link_count
    }

    /// A short human-readable rendering of a tuple, used in answers and
    /// browsing: the primary key plus the first textual non-key attribute.
    pub fn describe_tuple(&self, rid: Rid) -> StorageResult<String> {
        let table = self.table(rid.relation);
        let schema = table.schema();
        let tuple = self.tuple(rid)?;
        let key = if schema.has_primary_key() {
            schema
                .key_of(tuple.values())
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        } else {
            rid.to_string()
        };
        let text = schema
            .columns
            .iter()
            .enumerate()
            .find(|(i, c)| {
                !schema.primary_key.contains(i)
                    && matches!(c.ty, crate::schema::ColumnType::Text)
                    && !tuple.values()[*i].is_null()
            })
            .map(|(i, _)| tuple.values()[i].to_string());
        Ok(match text {
            Some(t) => format!("{}({key}: {t})", schema.name),
            None => format!("{}({key})", schema.name),
        })
    }

    /// Is `rid` a live tuple? Answered from presence information alone —
    /// no block decodes on a lazy database.
    pub fn is_live(&self, rid: Rid) -> bool {
        self.tables
            .get(rid.relation.index())
            .is_some_and(|t| t.is_live(rid.slot))
    }

    /// Open a lazy database over `store` (in practice `banks-pager`'s
    /// `PagedTupleStore` over a bundle's DATA section): the catalog
    /// comes from `schema_text` (the store's recorded schema text, see
    /// [`crate::schema::schema_from_text`]), tuples and reverse
    /// references page in from the store on demand, and mutations land
    /// in per-table overlays so a later snapshot rewrites only touched
    /// blocks.
    pub fn open_lazy(schema_text: &str, store: Arc<dyn TupleStore>) -> StorageResult<Database> {
        let mut db = schema_from_text(schema_text)?;
        if db.relation_count() != store.relation_count() {
            return Err(StorageError::Corrupt(format!(
                "schema declares {} relations but the tuple store carries {}",
                db.relation_count(),
                store.relation_count()
            )));
        }
        for (rel, table) in db.tables.iter_mut().enumerate() {
            table.make_lazy(Arc::clone(&store), rel as u32)?;
        }
        db.link_count = usize::try_from(store.link_count())
            .map_err(|_| StorageError::Corrupt("tuple store link count overflows usize".into()))?;
        db.back_refs = BackRefsRepr::Lazy {
            store,
            overlay: FxHashMap::default(),
        };
        Ok(db)
    }

    /// The backing tuple store, if this database is lazy.
    pub fn tuple_store(&self) -> Option<&Arc<dyn TupleStore>> {
        match &self.back_refs {
            BackRefsRepr::Eager(_) => None,
            BackRefsRepr::Lazy { store, .. } => Some(store),
        }
    }

    /// Cache counters of the backing tuple store (`None` when fully
    /// resident).
    pub fn tuple_store_stats(&self) -> Option<TupleStoreStats> {
        self.tuple_store().map(|s| s.stats())
    }

    /// Build one relation's v3 section payloads (see
    /// [`crate::blocks::encode_database_v3`]). On a lazy database this
    /// is copy-on-write: blocks and lanes untouched since open are
    /// copied raw from the backing store, checksums and all.
    pub(crate) fn v3_relation_payload(
        &self,
        id: RelationId,
        span: u32,
    ) -> StorageResult<RelationPayload> {
        let table = self.table(id);
        let slot_count = u32::try_from(table.slot_count()).expect("slot count fits u32");
        let block_count = u64::from(slot_count).div_ceil(u64::from(span)) as u32;
        let mut presence = vec![0u8; slot_count.div_ceil(8) as usize];
        for slot in table.live_slots() {
            presence[(slot / 8) as usize] |= 1 << (slot % 8);
        }

        // Which blocks must be re-encoded? All of them on an eager
        // database; on a lazy one, only blocks whose tuples or
        // back-reference lists changed, plus any block whose covered
        // range grew with appends.
        let parts = table.lazy_parts();
        let mut dirty: FxHashSet<u32> = FxHashSet::default();
        let (clean_source, lane) = match &parts {
            None => (None, None),
            Some(p) => {
                for &slot in &p.overlay_slots {
                    dirty.insert(slot / span);
                }
                if let BackRefsRepr::Lazy { overlay, .. } = &self.back_refs {
                    for target in overlay.keys().filter(|r| r.relation == id) {
                        dirty.insert(target.slot / span);
                    }
                }
                if p.slot_count != p.base_slots {
                    // Blocks ending past the old slot count now cover
                    // more slots than the stored bytes do.
                    let first_grown = p.base_slots / span;
                    for b in first_grown..block_count {
                        dirty.insert(b);
                    }
                }
                let lane = if p.pk_dirty() {
                    let (raw, _, _) = p.store.raw_pk_lane(p.rel)?;
                    let mut entries = decode_lane(&raw)?;
                    entries.retain(|e| !p.pk_deleted.contains(e));
                    entries.extend_from_slice(&p.pk_added);
                    Some(encode_lane(entries))
                } else {
                    None
                };
                (Some((Arc::clone(p.store), p.rel)), lane)
            }
        };

        let pk_lane = match lane {
            Some(bytes) => bytes,
            None => match &clean_source {
                Some((store, rel)) => store.raw_pk_lane(*rel)?.0,
                None => {
                    let entries = if table.schema().has_primary_key() {
                        table
                            .scan()
                            .map(|(rid, t)| (table.pk_hash_of_row(t.values()), rid.slot))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    encode_lane(entries)
                }
            },
        };

        let mut blocks = Vec::with_capacity(block_count as usize);
        for b in 0..block_count {
            let reuse = match &clean_source {
                Some((store, rel)) if !dirty.contains(&b) => Some(store.raw_block(*rel, b)?),
                _ => None,
            };
            blocks.push(match reuse {
                Some(raw) => raw,
                None => {
                    let first = b * span;
                    let end = slot_count.min(first.saturating_add(span));
                    let bytes = self.encode_block_range(id, first, end);
                    let checksum = checksum64(&bytes);
                    (bytes, checksum)
                }
            });
        }

        Ok(RelationPayload {
            slot_count,
            live_count: table.len() as u64,
            presence,
            pk_checksum: checksum64(&pk_lane),
            pk_entries: (pk_lane.len() / 12) as u64,
            pk_lane,
            blocks,
        })
    }

    /// Encode slots `[first, end)` of relation `id` from live state.
    fn encode_block_range(&self, id: RelationId, first: u32, end: u32) -> Vec<u8> {
        let table = self.table(id);
        encode_block((first..end).map(|slot| {
            table
                .get(slot)
                .map(|tuple| (tuple, self.referencing(Rid::new(id, slot))))
        }))
    }
}

/// A target's base reverse-reference list, cloned out of its tuple
/// block (empty for appended slots, which have no base block).
fn base_refs_of(store: &dyn TupleStore, target: Rid) -> Vec<BackRef> {
    let rel = target.relation.0;
    if target.slot >= store.slot_count(rel) {
        return Vec::new();
    }
    store
        .block(rel, target.slot / store.block_span())
        .refs(target.slot)
        .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    /// The Fig. 1 bibliography schema of the paper.
    pub(crate) fn bib_db() -> Database {
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
        db.create_relation(
            RelationSchema::builder("Cites")
                .column("Citing", ColumnType::Text)
                .column("Cited", ColumnType::Text)
                .primary_key(&["Citing", "Cited"])
                .foreign_key_with_similarity(&["Citing"], "Paper", 2.0)
                .foreign_key_with_similarity(&["Cited"], "Paper", 2.0)
                .build()
                .unwrap(),
        )
        .unwrap();
        db
    }

    fn seed_fig1(db: &mut Database) -> (Rid, Vec<Rid>, Vec<Rid>) {
        let paper = db
            .insert(
                "Paper",
                vec![
                    Value::text("ChakrabartiSD98"),
                    Value::text("Mining Surprising Patterns Using Temporal Description Length"),
                ],
            )
            .unwrap();
        let mut authors = Vec::new();
        let mut writes = Vec::new();
        for (id, name) in [
            ("SoumenC", "Soumen Chakrabarti"),
            ("SunitaS", "Sunita Sarawagi"),
            ("ByronD", "Byron Dom"),
        ] {
            let a = db
                .insert("Author", vec![Value::text(id), Value::text(name)])
                .unwrap();
            let w = db
                .insert(
                    "Writes",
                    vec![Value::text(id), Value::text("ChakrabartiSD98")],
                )
                .unwrap();
            authors.push(a);
            writes.push(w);
        }
        (paper, authors, writes)
    }

    #[test]
    fn install_links_rejects_inconsistent_back_references() {
        let mut db = bib_db();
        let (paper, _, writes) = seed_fig1(&mut db);
        let links = |from: Rid, fk_index: usize| vec![(paper, vec![BackRef { from, fk_index }])];
        // Writes has two foreign keys: #1 is valid, #7 names none.
        db.install_links(links(writes[0], 1)).unwrap();
        match db.install_links(links(writes[0], 7)) {
            Err(StorageError::Corrupt(m)) => assert!(m.contains("foreign key"), "{m}"),
            other => panic!("wild fk_index must be Corrupt, got {other:?}"),
        }
        // A reference from a slot that holds no live tuple.
        let dead = Rid::new(writes[0].relation, 999);
        match db.install_links(links(dead, 1)) {
            Err(StorageError::Corrupt(m)) => assert!(m.contains("live"), "{m}"),
            other => panic!("dead source rid must be Corrupt, got {other:?}"),
        }
        // A target listed twice would shadow its first entry.
        let mut twice = links(writes[0], 1);
        twice.extend(links(writes[1], 1));
        assert!(matches!(
            db.install_links(twice),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn fig1_links_resolve_both_directions() {
        let mut db = bib_db();
        let (paper, authors, writes) = seed_fig1(&mut db);
        // Forward: each Writes tuple resolves to its author and paper.
        assert_eq!(db.resolve_fk(writes[0], 0).unwrap(), Some(authors[0]));
        assert_eq!(db.resolve_fk(writes[0], 1).unwrap(), Some(paper));
        // Backward: the paper is referenced by all three Writes tuples.
        assert_eq!(db.indegree(paper), 3);
        let writes_rel = db.relation_id("Writes").unwrap();
        assert_eq!(db.indegree_from(paper, writes_rel), 3);
        assert_eq!(db.indegree(authors[1]), 1);
        // Counts match the seven tuples of Fig. 1(B).
        assert_eq!(db.total_tuples(), 7);
        assert_eq!(db.link_count(), 6);
    }

    #[test]
    fn fk_violation_rejected_and_db_unchanged() {
        let mut db = bib_db();
        let err = db
            .insert("Writes", vec![Value::text("ghost"), Value::text("nopaper")])
            .unwrap_err();
        assert!(matches!(err, StorageError::ForeignKeyViolation { .. }));
        assert_eq!(db.total_tuples(), 0);
        assert_eq!(db.link_count(), 0);
    }

    #[test]
    fn delete_restrict_then_allow() {
        let mut db = bib_db();
        let (paper, _authors, writes) = seed_fig1(&mut db);
        // The paper is referenced: delete must fail.
        assert!(db.delete(paper).is_err());
        // Deleting the referencing tuples unblocks it and decrements links.
        for w in writes {
            db.delete(w).unwrap();
        }
        assert_eq!(db.indegree(paper), 0);
        db.delete(paper).unwrap();
        assert_eq!(db.link_count(), 0);
    }

    #[test]
    fn update_fk_column_relinks_backrefs() {
        let mut db = bib_db();
        let (paper, authors, writes) = seed_fig1(&mut db);
        let second = db
            .insert(
                "Paper",
                vec![Value::text("SarawagiC00"), Value::text("Scalable Mining")],
            )
            .unwrap();
        assert_eq!(db.indegree(paper), 3);
        assert_eq!(db.indegree(second), 0);
        // Writes has pk (AuthorId, PaperId) so PaperId is not updatable
        // there; use Cites (pk = both cols) — also not updatable. Use a
        // fresh link relation without the fk columns in its pk.
        db.create_relation(
            RelationSchema::builder("Likes")
                .column("Id", ColumnType::Int)
                .column("PaperId", ColumnType::Text)
                .primary_key(&["Id"])
                .foreign_key(&["PaperId"], "Paper")
                .build()
                .unwrap(),
        )
        .unwrap();
        let like = db
            .insert("Likes", vec![Value::Int(1), Value::text("ChakrabartiSD98")])
            .unwrap();
        assert_eq!(db.indegree(paper), 4);
        let links_before = db.link_count();

        // Repoint the like at the second paper.
        let old = db.update(like, 1, Value::text("SarawagiC00")).unwrap();
        assert_eq!(old, Value::text("ChakrabartiSD98"));
        assert_eq!(db.indegree(paper), 3);
        assert_eq!(db.indegree(second), 1);
        assert_eq!(db.link_count(), links_before);
        assert_eq!(db.resolve_fk(like, 0).unwrap(), Some(second));

        // Dangling update rejected, nothing relinked.
        assert!(matches!(
            db.update(like, 1, Value::text("nope")).unwrap_err(),
            StorageError::ForeignKeyViolation { .. }
        ));
        assert_eq!(db.indegree(second), 1);
        assert_eq!(db.link_count(), links_before);

        // Non-FK column update leaves links alone.
        db.update(authors[0], 1, Value::text("S. Chakrabarti"))
            .unwrap();
        assert_eq!(db.link_count(), links_before);

        // PK column update rejected at the table layer.
        assert!(db.update(writes[0], 0, Value::text("X")).is_err());
        // Out-of-range column is a typed error.
        assert!(matches!(
            db.update(authors[0], 9, Value::Null).unwrap_err(),
            StorageError::UnknownColumn { .. }
        ));
    }

    #[test]
    fn composite_fk_updates_validate_as_a_unit() {
        // A relation with a composite primary key, referenced by a
        // two-column foreign key.
        let mut db = Database::new("t");
        db.create_relation(
            RelationSchema::builder("Slot")
                .column("Room", ColumnType::Text)
                .column("Hour", ColumnType::Text)
                .primary_key(&["Room", "Hour"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Booking")
                .column("Id", ColumnType::Text)
                .column("Room", ColumnType::Text)
                .column("Hour", ColumnType::Text)
                .primary_key(&["Id"])
                .foreign_key(&["Room", "Hour"], "Slot")
                .build()
                .unwrap(),
        )
        .unwrap();
        let s1 = db
            .insert("Slot", vec![Value::text("r1"), Value::text("h1")])
            .unwrap();
        let s2 = db
            .insert("Slot", vec![Value::text("r2"), Value::text("h2")])
            .unwrap();
        let booking = db
            .insert(
                "Booking",
                vec![Value::text("b"), Value::text("r1"), Value::text("h1")],
            )
            .unwrap();
        assert_eq!(db.indegree(s1), 1);

        // (r1,h1) → (r2,h2): neither intermediate state — (r2,h1) nor
        // (r1,h2) — exists, but the final state does. Must succeed.
        let old = db
            .update_columns(booking, &[(1, Value::text("r2")), (2, Value::text("h2"))])
            .unwrap();
        assert_eq!(old, vec![Value::text("r1"), Value::text("h1")]);
        assert_eq!(db.resolve_fk(booking, 0).unwrap(), Some(s2));
        assert_eq!(db.indegree(s1), 0);
        assert_eq!(db.indegree(s2), 1);
        assert_eq!(db.link_count(), 1);

        // A final state that dangles is rejected with nothing applied.
        assert!(db
            .update_columns(booking, &[(1, Value::text("r1")), (2, Value::text("h9"))])
            .is_err());
        assert_eq!(db.resolve_fk(booking, 0).unwrap(), Some(s2));
        assert_eq!(db.indegree(s2), 1);

        // Per-column validation still fires before any write: a later
        // bad assignment voids an earlier good one.
        assert!(db
            .update_columns(booking, &[(1, Value::text("r1")), (9, Value::Null)])
            .is_err());
        assert_eq!(db.resolve_fk(booking, 0).unwrap(), Some(s2), "untouched");
    }

    #[test]
    fn update_fk_to_null_and_back() {
        let mut db = Database::new("org");
        db.create_relation(
            RelationSchema::builder("Person")
                .column("Id", ColumnType::Text)
                .nullable_column("Manager", ColumnType::Text)
                .primary_key(&["Id"])
                .nullable_foreign_key(&["Manager"], "Person")
                .build()
                .unwrap(),
        )
        .unwrap();
        let boss = db
            .insert("Person", vec![Value::text("boss"), Value::Null])
            .unwrap();
        let emp = db
            .insert("Person", vec![Value::text("emp"), Value::text("boss")])
            .unwrap();
        assert_eq!(db.indegree(boss), 1);
        db.update(emp, 1, Value::Null).unwrap();
        assert_eq!(db.indegree(boss), 0);
        assert_eq!(db.link_count(), 0);
        db.update(emp, 1, Value::text("boss")).unwrap();
        assert_eq!(db.indegree(boss), 1);
        assert_eq!(db.link_count(), 1);
    }

    #[test]
    fn create_relation_checks_fk_targets() {
        let mut db = Database::new("x");
        let err = db
            .create_relation(
                RelationSchema::builder("Writes")
                    .column("AuthorId", ColumnType::Text)
                    .foreign_key(&["AuthorId"], "Author")
                    .build()
                    .unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, StorageError::UnknownRelation(_)));
    }

    #[test]
    fn self_referencing_relation_allowed() {
        let mut db = Database::new("org");
        db.create_relation(
            RelationSchema::builder("Person")
                .column("Id", ColumnType::Text)
                .nullable_column("Manager", ColumnType::Text)
                .primary_key(&["Id"])
                .nullable_foreign_key(&["Manager"], "Person")
                .build()
                .unwrap(),
        )
        .unwrap();
        let boss = db
            .insert("Person", vec![Value::text("boss"), Value::Null])
            .unwrap();
        let emp = db
            .insert("Person", vec![Value::text("emp"), Value::text("boss")])
            .unwrap();
        assert_eq!(db.resolve_fk(emp, 0).unwrap(), Some(boss));
        assert_eq!(db.resolve_fk(boss, 0).unwrap(), None);
        assert_eq!(db.indegree(boss), 1);
    }

    #[test]
    fn fk_arity_mismatch_rejected_at_create() {
        let mut db = bib_db();
        let err = db
            .create_relation(
                RelationSchema::builder("Bad")
                    .column("A", ColumnType::Text)
                    .column("B", ColumnType::Text)
                    .foreign_key(&["A", "B"], "Author")
                    .build()
                    .unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, StorageError::InvalidSchema(_)));
    }

    #[test]
    fn describe_tuple_renders_key_and_text() {
        let mut db = bib_db();
        let (paper, ..) = seed_fig1(&mut db);
        let desc = db.describe_tuple(paper).unwrap();
        assert!(desc.starts_with("Paper(ChakrabartiSD98"));
        assert!(desc.contains("Mining Surprising Patterns"));
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut db = bib_db();
        let err = db
            .create_relation(
                RelationSchema::builder("Author")
                    .column("X", ColumnType::Int)
                    .build()
                    .unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, StorageError::DuplicateRelation(_)));
    }
}
