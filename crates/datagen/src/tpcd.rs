//! A miniature TPC-D-style order database.
//!
//! §2.1 of the paper uses TPC-D to motivate prestige: "in a TPCD database
//! storing information about parts, suppliers, customers and orders, the
//! orders information contains references to parts, suppliers and
//! customers. As a result, if a query matches two parts (or suppliers, or
//! customers) the one with more orders would get a higher prestige."
//!
//! The generator plants two parts that share the name token `widget` —
//! one referenced by many line items, one by few — so that exact scenario
//! is testable.

use crate::names::{FIRST_NAMES, LAST_NAMES, PART_KINDS, PART_WORDS};
use crate::rng::Rng;
use crate::zipf::Zipf;
use banks_storage::{ColumnType, Database, RelationSchema, StorageResult, Value};

/// Size knobs for the TPC-D-style database.
#[derive(Debug, Clone, PartialEq)]
pub struct TpcdConfig {
    /// PRNG seed.
    pub seed: u64,
    /// Part count.
    pub parts: usize,
    /// Supplier count.
    pub suppliers: usize,
    /// Customer count.
    pub customers: usize,
    /// Order count.
    pub orders: usize,
    /// Line items per order (upper bound; ≥ 1).
    pub max_lines: usize,
}

impl TpcdConfig {
    /// Unit-test scale.
    pub fn tiny(seed: u64) -> TpcdConfig {
        TpcdConfig {
            seed,
            parts: 40,
            suppliers: 12,
            customers: 30,
            orders: 120,
            max_lines: 4,
        }
    }
}

/// Planted ids for the prestige scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpcdPlanted {
    /// The `widget` part with many orders.
    pub popular_widget: String,
    /// The `widget` part with few orders.
    pub obscure_widget: String,
}

/// A generated database plus planted ground truth.
#[derive(Debug, Clone)]
pub struct TpcdDataset {
    /// The relational database.
    pub db: Database,
    /// Planted ids.
    pub planted: TpcdPlanted,
    /// Config used.
    pub config: TpcdConfig,
}

/// Create the schema in a fresh database.
pub(crate) fn tpcd_schema() -> StorageResult<Database> {
    let mut db = Database::new("tpcd");
    db.create_relation(
        RelationSchema::builder("Part")
            .column("PartKey", ColumnType::Text)
            .column("PartName", ColumnType::Text)
            .primary_key(&["PartKey"])
            .build()?,
    )?;
    db.create_relation(
        RelationSchema::builder("Supplier")
            .column("SuppKey", ColumnType::Text)
            .column("SuppName", ColumnType::Text)
            .primary_key(&["SuppKey"])
            .build()?,
    )?;
    db.create_relation(
        RelationSchema::builder("Customer")
            .column("CustKey", ColumnType::Text)
            .column("CustName", ColumnType::Text)
            .primary_key(&["CustKey"])
            .build()?,
    )?;
    db.create_relation(
        RelationSchema::builder("Orders")
            .column("OrderKey", ColumnType::Text)
            .column("CustKey", ColumnType::Text)
            .column("TotalPrice", ColumnType::Float)
            .primary_key(&["OrderKey"])
            .foreign_key(&["CustKey"], "Customer")
            .build()?,
    )?;
    db.create_relation(
        RelationSchema::builder("LineItem")
            .column("OrderKey", ColumnType::Text)
            .column("LineNo", ColumnType::Int)
            .column("PartKey", ColumnType::Text)
            .column("SuppKey", ColumnType::Text)
            .column("Quantity", ColumnType::Int)
            .primary_key(&["OrderKey", "LineNo"])
            .foreign_key(&["OrderKey"], "Orders")
            .foreign_key(&["PartKey"], "Part")
            .foreign_key(&["SuppKey"], "Supplier")
            .build()?,
    )?;
    Ok(db)
}

/// Generate a full dataset.
pub fn generate(config: TpcdConfig) -> StorageResult<TpcdDataset> {
    let mut rng = Rng::new(config.seed);
    let mut db = tpcd_schema()?;

    // Planted widgets first: the popular one is part rank 0 (most likely
    // to be ordered under the Zipf draw), the obscure one is the last rank.
    let popular = "PARTPOPW".to_string();
    let obscure = "PARTOBSW".to_string();
    db.insert(
        "Part",
        vec![Value::text(&popular), Value::text("anodized steel widget")],
    )?;
    let mut part_ids = vec![popular.clone()];
    for i in 0..config.parts.saturating_sub(2) {
        let id = format!("PART{i:04}");
        let name = format!(
            "{} {} {}",
            PART_WORDS[i % PART_WORDS.len()],
            rng.pick(PART_WORDS),
            PART_KINDS[i % (PART_KINDS.len() - 1)] // skip "widget"
        );
        db.insert("Part", vec![Value::text(&id), Value::text(name)])?;
        part_ids.push(id);
    }
    db.insert(
        "Part",
        vec![Value::text(&obscure), Value::text("frosted brass widget")],
    )?;
    part_ids.push(obscure.clone());

    let mut supplier_ids = Vec::with_capacity(config.suppliers);
    for i in 0..config.suppliers {
        let id = format!("SUPP{i:03}");
        let name = format!("{} {} Supply", rng.pick(FIRST_NAMES), rng.pick(LAST_NAMES));
        db.insert("Supplier", vec![Value::text(&id), Value::text(name)])?;
        supplier_ids.push(id);
    }

    let mut customer_ids = Vec::with_capacity(config.customers);
    for i in 0..config.customers {
        let id = format!("CUST{i:04}");
        let name = format!("{} {}", rng.pick(FIRST_NAMES), rng.pick(LAST_NAMES));
        db.insert("Customer", vec![Value::text(&id), Value::text(name)])?;
        customer_ids.push(id);
    }

    // Orders + line items; parts drawn Zipf by rank, so the popular widget
    // (rank 0) accumulates line items while the obscure one (last rank)
    // gets almost none.
    let part_zipf = Zipf::new(part_ids.len(), 1.0);
    for o in 0..config.orders {
        let order_id = format!("ORD{o:05}");
        let customer = rng.pick(&customer_ids).clone();
        let price = 50.0 + rng.next_f64() * 950.0;
        db.insert(
            "Orders",
            vec![
                Value::text(&order_id),
                Value::text(customer),
                Value::Float((price * 100.0).round() / 100.0),
            ],
        )?;
        let lines = rng.range(1, config.max_lines.max(2));
        for line in 0..lines {
            let part = &part_ids[part_zipf.sample(&mut rng)];
            let supplier = rng.pick(&supplier_ids).clone();
            db.insert(
                "LineItem",
                vec![
                    Value::text(&order_id),
                    Value::Int(line as i64),
                    Value::text(part),
                    Value::text(supplier),
                    Value::Int(rng.range(1, 50) as i64),
                ],
            )?;
        }
    }

    Ok(TpcdDataset {
        db,
        planted: TpcdPlanted {
            popular_widget: popular,
            obscure_widget: obscure,
        },
        config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = generate(TpcdConfig::tiny(1)).unwrap();
        let b = generate(TpcdConfig::tiny(1)).unwrap();
        assert_eq!(a.db.total_tuples(), b.db.total_tuples());
        assert_eq!(a.db.link_count(), b.db.link_count());
    }

    #[test]
    fn popular_widget_has_more_orders() {
        let d = generate(TpcdConfig::tiny(2)).unwrap();
        let part = d.db.relation("Part").unwrap();
        let pop = part
            .lookup_pk(&[Value::text(&d.planted.popular_widget)])
            .unwrap();
        let obs = part
            .lookup_pk(&[Value::text(&d.planted.obscure_widget)])
            .unwrap();
        assert!(
            d.db.indegree(pop) > d.db.indegree(obs) + 3,
            "popular {} vs obscure {}",
            d.db.indegree(pop),
            d.db.indegree(obs)
        );
    }

    #[test]
    fn all_relations_populated() {
        let d = generate(TpcdConfig::tiny(3)).unwrap();
        for table in d.db.relations() {
            assert!(!table.is_empty(), "{} empty", table.schema().name);
        }
    }

    #[test]
    fn both_widgets_share_the_token() {
        let d = generate(TpcdConfig::tiny(4)).unwrap();
        let part = d.db.relation("Part").unwrap();
        let name_of = |key: &str| {
            let rid = part.lookup_pk(&[Value::text(key)]).unwrap();
            d.db.tuple(rid).unwrap().values()[1]
                .as_text()
                .unwrap()
                .to_string()
        };
        assert!(name_of(&d.planted.popular_widget).contains("widget"));
        assert!(name_of(&d.planted.obscure_widget).contains("widget"));
    }
}
