//! Bring-your-own schema: BANKS on a database that doesn't come from the
//! built-in generators — an org chart with a self-referential manager
//! edge, projects, and assignments — plus snapshot-bundle persistence.
//!
//! ```text
//! cargo run -p banks-testsuite --example custom_schema [bundle-file]
//! ```

use banks_core::{Banks, BanksConfig};
use banks_persist::{load_bundle, save_bundle};
use banks_storage::{ColumnType, Database, RelationSchema, Value};
use std::path::PathBuf;

fn build_org() -> Result<Database, Box<dyn std::error::Error>> {
    let mut db = Database::new("orgchart");
    db.create_relation(
        RelationSchema::builder("Employee")
            .column("Id", ColumnType::Text)
            .column("Name", ColumnType::Text)
            .nullable_column("Manager", ColumnType::Text)
            .primary_key(&["Id"])
            .nullable_foreign_key(&["Manager"], "Employee")
            .build()?,
    )?;
    db.create_relation(
        RelationSchema::builder("Project")
            .column("Id", ColumnType::Text)
            .column("Title", ColumnType::Text)
            .primary_key(&["Id"])
            .build()?,
    )?;
    db.create_relation(
        RelationSchema::builder("Assignment")
            .column("EmployeeId", ColumnType::Text)
            .column("ProjectId", ColumnType::Text)
            .primary_key(&["EmployeeId", "ProjectId"])
            .foreign_key(&["EmployeeId"], "Employee")
            .foreign_key(&["ProjectId"], "Project")
            .build()?,
    )?;

    // A small org: a director, two leads, four engineers.
    let people: &[(&str, &str, Option<&str>)] = &[
        ("e1", "Dana Director", None),
        ("e2", "Lena Lead", Some("e1")),
        ("e3", "Liam Lead", Some("e1")),
        ("e4", "Eva Engineer", Some("e2")),
        ("e5", "Errol Engineer", Some("e2")),
        ("e6", "Elif Engineer", Some("e3")),
        ("e7", "Edgar Engineer", Some("e3")),
    ];
    for (id, name, manager) in people {
        db.insert(
            "Employee",
            vec![
                Value::text(*id),
                Value::text(*name),
                manager.map(Value::text).unwrap_or(Value::Null),
            ],
        )?;
    }
    for (id, title) in [
        ("p1", "Keyword Search Engine"),
        ("p2", "Browsing Interface Revamp"),
        ("p3", "Graph Storage Compaction"),
    ] {
        db.insert("Project", vec![Value::text(id), Value::text(title)])?;
    }
    for (e, p) in [
        ("e4", "p1"),
        ("e5", "p1"),
        ("e6", "p2"),
        ("e7", "p3"),
        ("e2", "p1"),
        ("e3", "p2"),
        ("e3", "p3"),
    ] {
        db.insert("Assignment", vec![Value::text(e), Value::text(p)])?;
    }
    Ok(db)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = build_org()?;

    // Link relations make poor information nodes, exactly like Writes in
    // the paper's bibliography schema.
    let mut config = BanksConfig::default();
    config.search.excluded_root_relations = vec!["Assignment".into()];
    let banks = Banks::with_config(db, config)?;

    // Who connects Eva and Elif? (Answer: they share no project — the
    // connection runs up the management chain.)
    for query in ["eva elif", "eva errol", "lena keyword", "graph edgar"] {
        println!("== query: {query}");
        let answers = banks.search(query)?;
        match answers.first() {
            Some(best) => print!("{}", banks.render_answer(best)),
            None => println!("(no answers)"),
        }
        println!();
    }

    // Persist the system as a snapshot bundle and read it back.
    let path: PathBuf = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("banks_orgchart.banks"));
    save_bundle(&banks, 0, &path)?;
    let (restored, _) = load_bundle(&path, banks.config())?;
    println!(
        "bundle round trip: {} tuples → {} ({} relations) at {}",
        banks.db().total_tuples(),
        restored.db().total_tuples(),
        restored.db().relation_count(),
        path.display()
    );
    Ok(())
}
