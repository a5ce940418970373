//! Staging a corpus for the bundle writer without building a
//! [`Database`].
//!
//! A cold build used to insert every row into the eager database —
//! per-row `Vec<Value>` and `String` heap objects, a per-target `Vec`
//! of back-references — only to encode it into a v3 DATA section and
//! drop it. A [`RowArena`] keeps what the bundle needs and nothing
//! else:
//!
//! * each relation's rows in the block value encoding, back to back in
//!   one buffer (the bytes a tuple block stores), with a presence bitmap;
//! * a primary-key index (hash → slot) for duplicate and foreign-key
//!   probes, confirmed against the encoded key values;
//! * one `(target, reference)` pair per resolved foreign key, in
//!   insertion order.
//!
//! [`RowArena::insert`] enforces exactly what [`Database::insert`] does,
//! in the same order and with the same errors, so a corpus that fails
//! to load fails identically on both paths. [`RowArena::finish`] sorts
//! the references by target with a counting sort — stable, so each
//! target keeps its insertion-order list, which is the order the eager
//! database records — and hands back [`StagedRows`], which writes the
//! DATA section through the same block, lane and header assembler as
//! [`crate::blocks::encode_database_v3`], streams the text values for
//! [`crate::TextIndex::from_texts`], and streams per-target references
//! for the data-graph derivation.

use crate::blocks::{
    checksum64, encode_block, encode_lane, encode_values, take_value_ref, write_data_section,
    EncodedValue, RelationPayload, BLOCK_SPAN,
};
use crate::bundle::schema_to_text;
use crate::catalog::{BackRef, Database};
use crate::error::StorageResult;
use crate::schema::ColumnType;
use crate::table::{pk_map_link, PkIndex, Table};
use crate::tuple::{RelationId, Rid};
use crate::value::Value;

/// One relation's staged rows.
#[derive(Debug, Default)]
struct StagedRelation {
    /// Every live row's values in the block value encoding, back to back.
    bytes: Vec<u8>,
    /// `ends[slot]`: where the slot's values end in `bytes`; they start
    /// where the previous slot's end (a tombstone's range is empty).
    ends: Vec<u32>,
    /// Liveness bitmap, LSB-first — the v3 presence bitmap.
    presence: Vec<u8>,
    live: u64,
    /// Primary-key hash → slot(s), over live rows.
    pk: PkIndex,
}

impl StagedRelation {
    fn slot_count(&self) -> u32 {
        self.ends.len() as u32
    }

    fn is_live(&self, slot: u32) -> bool {
        self.presence[(slot / 8) as usize] & (1 << (slot % 8)) != 0
    }

    /// The encoded values of `slot` (empty for a tombstone).
    fn row(&self, slot: u32) -> &[u8] {
        let start = match slot {
            0 => 0,
            s => self.ends[s as usize - 1] as usize,
        };
        &self.bytes[start..self.ends[slot as usize] as usize]
    }

    /// Append a slot: the row's values, or a tombstone.
    fn push(&mut self, values: Option<&[Value]>, pk_hash: Option<u64>) -> u32 {
        let slot = self.slot_count();
        if slot.is_multiple_of(8) {
            self.presence.push(0);
        }
        if let Some(values) = values {
            encode_values(values, &mut self.bytes);
            self.presence[(slot / 8) as usize] |= 1 << (slot % 8);
            self.live += 1;
            if let Some(hash) = pk_hash {
                pk_map_link(&mut self.pk, hash, slot);
            }
        }
        let end = u32::try_from(self.bytes.len()).expect("a relation's values exceed 4 GiB");
        self.ends.push(end);
        slot
    }
}

/// The value in column `col` of an encoded row.
fn value_at(row: &[u8], col: usize) -> EncodedValue<'_> {
    let mut pos = 0;
    for _ in 0..col {
        take_value_ref(row, &mut pos).expect("staged rows are well-formed");
    }
    take_value_ref(row, &mut pos).expect("staged rows are well-formed")
}

/// Rows being staged; see the module docs.
#[derive(Debug)]
pub struct RowArena {
    catalog: Database,
    relations: Vec<StagedRelation>,
    /// `(target, reference)` per resolved foreign key, in insertion order.
    links: Vec<(Rid, BackRef)>,
}

impl RowArena {
    /// An empty arena over the relations of `catalog` (which must hold
    /// no tuples: only its schemas are used).
    pub fn new(catalog: Database) -> RowArena {
        let relations = catalog
            .relations()
            .map(|_| StagedRelation::default())
            .collect();
        RowArena {
            catalog,
            relations,
            links: Vec::new(),
        }
    }

    /// Stage a copy of `db`: every slot (tombstones too) in slot order,
    /// and each target's references in the order `db` records them. No
    /// key is resolved again, so the staged rows describe `db` exactly,
    /// whatever order its rows were inserted in.
    pub fn from_database(db: &Database) -> StorageResult<RowArena> {
        let mut arena = RowArena::new(db.empty_like()?);
        for table in db.relations() {
            let rel = &mut arena.relations[table.id().index()];
            for slot in 0..table.slot_count() as u32 {
                let Some(tuple) = table.get(slot) else {
                    rel.push(None, None);
                    continue;
                };
                let hash = table
                    .schema()
                    .has_primary_key()
                    .then(|| table.pk_hash_of_row(tuple.values()));
                rel.push(Some(tuple.values()), hash);
                let rid = Rid::new(table.id(), slot);
                arena
                    .links
                    .extend(db.referencing(rid).iter().map(|&r| (rid, r)));
            }
        }
        Ok(arena)
    }

    /// The live slot of `target` whose primary key equals `key`.
    fn pk_slot<'v>(
        &self,
        target: RelationId,
        key: impl Iterator<Item = &'v Value> + Clone,
    ) -> Option<u32> {
        let rel = &self.relations[target.index()];
        let pk = &self.catalog.table(target).schema().primary_key;
        rel.pk
            .get(&Table::pk_hash(key.clone()))?
            .candidates()
            .iter()
            .copied()
            .find(|&slot| {
                let row = rel.row(slot);
                pk.iter()
                    .zip(key.clone())
                    .all(|(&c, k)| value_at(row, c).matches(k))
            })
    }

    /// Stage one row of `relation`, enforcing what [`Database::insert`]
    /// enforces — arity, foreign keys, then types, nullability and
    /// primary-key uniqueness — with the same errors. Each foreign key is
    /// resolved here, once, against the rows staged before it.
    pub fn insert(&mut self, relation: &str, values: &[Value]) -> StorageResult<Rid> {
        let id = self.catalog.relation_id(relation)?;
        let table = self.catalog.table(id);
        let schema = table.schema();
        if values.len() != schema.arity() {
            return Err(crate::StorageError::ArityMismatch {
                relation: schema.name.clone(),
                expected: schema.arity(),
                actual: values.len(),
            });
        }
        let mut resolved: Vec<(usize, Rid)> = Vec::with_capacity(schema.foreign_keys.len());
        for (fk_index, fk) in schema.foreign_keys.iter().enumerate() {
            let key = fk.columns.iter().map(|&c| &values[c]);
            if key.clone().any(Value::is_null) {
                if fk.nullable {
                    continue;
                }
                return Err(self.catalog.null_fk(id, fk_index));
            }
            let target = self.catalog.fk_target_relation(id, fk_index);
            match self.pk_slot(target, key) {
                Some(slot) => resolved.push((fk_index, Rid::new(target, slot))),
                None => return Err(self.catalog.dangling(id, fk_index, values)),
            }
        }
        table.check_values(values)?;
        let hash = if schema.has_primary_key() {
            let key = schema.primary_key.iter().map(|&c| &values[c]);
            if self.pk_slot(id, key).is_some() {
                return Err(crate::StorageError::DuplicateKey {
                    relation: schema.name.clone(),
                    key: format!("{:?}", schema.key_of(values)),
                });
            }
            Some(table.pk_hash_of_row(values))
        } else {
            None
        };
        let slot = self.relations[id.index()].push(Some(values), hash);
        let rid = Rid::new(id, slot);
        self.links
            .extend(resolved.into_iter().map(|(fk_index, target)| {
                (
                    target,
                    BackRef {
                        from: rid,
                        fk_index,
                    },
                )
            }));
        Ok(rid)
    }

    /// Stop staging: group the references by target.
    pub fn finish(self) -> StagedRows {
        let mut slot_base = Vec::with_capacity(self.relations.len());
        let mut total = 0usize;
        for rel in &self.relations {
            slot_base.push(total);
            total += rel.slot_count() as usize;
        }
        let global = |rid: Rid| slot_base[rid.relation.index()] + rid.slot as usize;

        // Counting sort by target: stable, so every target keeps its
        // references in insertion order.
        let mut starts = vec![0u32; total + 1];
        for (target, _) in &self.links {
            starts[global(*target) + 1] += 1;
        }
        for g in 0..total {
            starts[g + 1] += starts[g];
        }
        let mut fill = starts[..total].to_vec();
        let placeholder = BackRef {
            from: Rid::new(RelationId(0), 0),
            fk_index: 0,
        };
        let mut refs = vec![placeholder; self.links.len()];
        for (target, r) in self.links {
            let at = &mut fill[global(target)];
            refs[*at as usize] = r;
            *at += 1;
        }
        drop(fill);

        // Graph node ids: live slots in relation-then-slot order.
        let mut node_of = Vec::with_capacity(total);
        let mut nodes = 0u32;
        for rel in &self.relations {
            for slot in 0..rel.slot_count() {
                node_of.push(if rel.is_live(slot) {
                    nodes += 1;
                    nodes - 1
                } else {
                    u32::MAX
                });
            }
        }
        let text_columns = self
            .catalog
            .relations()
            .map(|t| {
                t.schema()
                    .columns
                    .iter()
                    .map(|c| matches!(c.ty, ColumnType::Text))
                    .collect()
            })
            .collect();
        StagedRows {
            catalog: self.catalog,
            relations: self.relations,
            text_columns,
            slot_base,
            node_of,
            starts,
            refs,
        }
    }
}

/// Staged rows with their references grouped by target: what the bundle
/// writer encodes. See the module docs.
#[derive(Debug)]
pub struct StagedRows {
    catalog: Database,
    relations: Vec<StagedRelation>,
    /// Per relation, per column: is it a text column (text-indexed)?
    text_columns: Vec<Vec<bool>>,
    /// First global slot of each relation.
    slot_base: Vec<usize>,
    /// Global slot → graph node (`u32::MAX` for a tombstone).
    node_of: Vec<u32>,
    /// `refs[starts[g]..starts[g + 1]]`: the references to global slot `g`.
    starts: Vec<u32>,
    refs: Vec<BackRef>,
}

impl StagedRows {
    /// The catalog the rows were staged against.
    pub fn catalog(&self) -> &Database {
        &self.catalog
    }

    /// Live tuples — the data graph's node count.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(|r| r.live as usize).sum()
    }

    /// Resolved foreign-key links.
    pub fn link_count(&self) -> usize {
        self.refs.len()
    }

    fn refs_at(&self, global: usize) -> &[BackRef] {
        &self.refs[self.starts[global] as usize..self.starts[global + 1] as usize]
    }

    /// The graph node of the live tuple `rid`.
    pub fn node_of(&self, rid: Rid) -> u32 {
        self.node_of[self.slot_base[rid.relation.index()] + rid.slot as usize]
    }

    /// Every live tuple's references, in graph node order.
    pub fn node_refs(&self) -> impl Iterator<Item = &[BackRef]> + '_ {
        (0..self.node_of.len())
            .filter(|&g| self.node_of[g] != u32::MAX)
            .map(|g| self.refs_at(g))
    }

    /// Every text value of a live tuple as `(rid, column, text)`, in
    /// relation, slot and column order — the stream
    /// [`crate::TextIndex::from_texts`] indexes.
    pub fn texts(&self) -> impl Iterator<Item = (Rid, u32, &str)> + '_ {
        self.relations
            .iter()
            .zip(&self.text_columns)
            .enumerate()
            .filter(|(_, (_, text))| text.contains(&true))
            .flat_map(|(r, (rel, text))| {
                (0..rel.slot_count())
                    .filter(|&slot| rel.is_live(slot))
                    .flat_map(move |slot| {
                        let row = rel.row(slot);
                        let mut pos = 0;
                        text.iter().enumerate().filter_map(move |(col, &is_text)| {
                            let value =
                                take_value_ref(row, &mut pos).expect("staged rows are well-formed");
                            match (is_text, value) {
                                (true, EncodedValue::Text(s)) => {
                                    Some((Rid::new(RelationId(r as u32), slot), col as u32, s))
                                }
                                _ => None,
                            }
                        })
                    })
            })
    }

    /// Write the v3 DATA section at [`BLOCK_SPAN`] — byte-identical to
    /// [`crate::blocks::encode_database_v3`] of the database the rows
    /// describe.
    pub fn write_data_section(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let span = BLOCK_SPAN;
        let payloads: Vec<RelationPayload> = self
            .relations
            .iter()
            .enumerate()
            .map(|(r, rel)| {
                let base = self.slot_base[r];
                let slot_count = rel.slot_count();
                let blocks = (0..slot_count.div_ceil(span))
                    .map(|b| {
                        let first = b * span;
                        let end = slot_count.min(first.saturating_add(span));
                        let bytes = encode_block((first..end).map(|slot| {
                            rel.is_live(slot)
                                .then(|| (rel.row(slot), self.refs_at(base + slot as usize)))
                        }));
                        let checksum = checksum64(&bytes);
                        (bytes, checksum)
                    })
                    .collect();
                let pk_lane = encode_lane(
                    rel.pk
                        .iter()
                        .flat_map(|(&hash, slots)| {
                            slots.candidates().iter().map(move |&s| (hash, s))
                        })
                        .collect(),
                );
                RelationPayload {
                    slot_count,
                    live_count: rel.live,
                    presence: rel.presence.clone(),
                    pk_checksum: checksum64(&pk_lane),
                    pk_entries: (pk_lane.len() / 12) as u64,
                    pk_lane,
                    blocks,
                }
            })
            .collect();
        write_data_section(
            out,
            &schema_to_text(&self.catalog),
            self.refs.len() as u64,
            span,
            &payloads,
        )
    }

    /// Free the staged values and primary-key indexes; liveness and the
    /// references — all the graph derivation reads — stay.
    pub fn release_values(&mut self) {
        for rel in &mut self.relations {
            rel.bytes = Vec::new();
            rel.pk = PkIndex::default();
        }
    }
}
